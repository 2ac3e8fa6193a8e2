//! The shapes of the benchmark's KernelC family (`benchmark/src/family.rs`)
//! with constants that depend on the position alone.

/// The benchmark family's templates at `size`, as KernelC.
pub fn source(template: &str, size: u32) -> String {
    let table = match template {
        "lut" => "idxl_istream<int> T, ",
        _ => "",
    };
    let mut src = format!(
        "kernel k(istream<int> in, {table}ostream<int> out) {{\n  int x, t, v, a1, a2, a3;\n  \
         while (!eos(in)) {{\n    in >> x;\n    t = 0;\n    v = x + 7;\n    a1 = x;\n    \
         a2 = x;\n    a3 = x;\n"
    );
    for i in 0..size {
        let (k, c) = (3 * i + 1, 2 * i + 3);
        src.push_str(&match template {
            "fir" => {
                let acc = ["v", "a1", "a2", "a3"][i as usize % 4];
                format!("    {acc} = {acc} + (x ^ {k}) * {c};\n")
            }
            "lut" => format!("    T[(t ^ x) & 15] >> t;\n    v = v * {c} + t;\n"),
            "ladder" if i % 2 == 0 => format!("    v = max(min(v, {k}), 0 - {c});\n"),
            "ladder" => format!("    v = select(v < {k}, v + {c}, v ^ {k});\n"),
            other => panic!("no template {other}"),
        });
    }
    src.push_str("    out << v + (a1 ^ a2 ^ a3);\n  }\n}\n");
    src
}
