//! A minimal blocking HTTP/1.1 client for talking to the server — used by
//! the integration tests and `benchmark/`'s `serve_mix` workload.
//! One connection per [`Client`], kept alive across requests.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::Json;

/// A client response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parse the body as JSON.
    ///
    /// # Errors
    ///
    /// A message when the body is not UTF-8 or not valid JSON.
    pub fn json(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.body).map_err(|e| format!("{e}"))?;
        Json::parse(text).map_err(|e| format!("{e}"))
    }
}

/// A keep-alive connection to one server.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr` (connects lazily on first request).
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Send one request and read the response. Reconnects once if the
    /// server closed the kept-alive connection.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        match self.request_once(method, path, body) {
            Ok(r) => Ok(r),
            Err(_) => {
                // One retry on a fresh connection (idempotent from the
                // caller's perspective: the failure mode is a stale
                // keep-alive socket, not a half-applied request).
                self.conn = None;
                self.request_once(method, path, body)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let r = self.connect()?;
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: isrf-serve\r\n");
        let payload = body.unwrap_or_default();
        head.push_str(&format!("Content-Length: {}\r\n", payload.len()));
        if !payload.is_empty() {
            head.push_str("Content-Type: application/json\r\n");
        }
        head.push_str("\r\n");
        {
            let stream = r.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(payload.as_bytes())?;
            stream.flush()?;
        }
        let resp = read_response(r);
        if resp.is_err() {
            self.conn = None;
        }
        resp
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    /// `DELETE path`.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn delete(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("DELETE", path, None)
    }

    /// Poll `GET /jobs/<id>` until the job reaches a terminal or suspended
    /// state, then return the final status JSON.
    ///
    /// # Errors
    ///
    /// Transport failures, malformed responses, or `timeout` elapsing.
    pub fn wait_job(&mut self, id: u64, timeout: Duration) -> io::Result<Json> {
        // Sanctioned wall-clock reads: the client-side polling deadline
        // bounds how long we wait, never what the server computes.
        #[allow(clippy::disallowed_methods)]
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let resp = self.get(&format!("/jobs/{id}"))?;
            let v = resp
                .json()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let status = v.get("status").and_then(Json::as_str).unwrap_or_default();
            if matches!(status, "done" | "failed" | "cancelled" | "suspended") {
                return Ok(v);
            }
            #[allow(clippy::disallowed_methods)]
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {id} still {status:?} after {timeout:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn read_response(r: &mut BufReader<TcpStream>) -> io::Result<ClientResponse> {
    let mut status_line = String::new();
    r.read_line(&mut status_line)?;
    let mut parts = status_line.trim_end().splitn(3, ' ');
    let proto = parts.next().unwrap_or_default();
    if !proto.starts_with("HTTP/1.") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an HTTP response",
        ));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        r.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            let k = k.to_ascii_lowercase();
            let v = v.trim().to_string();
            if k == "content-length" {
                content_length = v.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
            headers.push((k, v));
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}
