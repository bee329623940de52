//! A small blocking client for the service's HTTP endpoints — what the
//! load generator and the end-to-end tests talk through. One TCP
//! connection per call, mirroring the server's `Connection: close`
//! contract.

use crate::http::{read_message, response_status, write_request};
use crate::json::Json;
use crate::wire;
use qt_circuit::Circuit;
use qt_core::{QuTracerConfig, QuTracerReport};
use std::fmt;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A client-side failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Transport failure (connect/read/write).
    Io(String),
    /// The server replied with an error status; carries the wire
    /// `error` kind and message.
    Server {
        /// HTTP status code.
        status: u16,
        /// Machine-readable kind (`"overloaded"`, ...).
        kind: String,
        /// Human-readable message.
        message: String,
    },
    /// The response body could not be decoded.
    Decode(String),
    /// [`ServiceClient::wait_result`] ran out of time.
    Timeout {
        /// The job that was still unfinished.
        job: u64,
    },
    /// Connecting failed on every attempt of the retry budget — the
    /// service is down or unreachable, not merely slow.
    Unreachable {
        /// Connection attempts spent (the configured budget).
        attempts: u32,
        /// The last connect error observed.
        last: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server {
                status,
                kind,
                message,
            } => write!(f, "server error {status} ({kind}): {message}"),
            ClientError::Decode(e) => write!(f, "undecodable response: {e}"),
            ClientError::Timeout { job } => write!(f, "timed out waiting for job {job}"),
            ClientError::Unreachable { attempts, last } => {
                write!(f, "unreachable after {attempts} connect attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// `true` for an admission rejection (HTTP 429) — the client should
    /// back off and retry.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ClientError::Server { status: 429, .. })
    }
}

/// A blocking HTTP client bound to one service address.
///
/// Connection establishment retries transient failures with bounded
/// exponential backoff (see [`ServiceClient::with_connect_retry`]);
/// nothing has been sent yet at that point, so the retry is safe for
/// every endpoint. Failures *after* connecting are surfaced immediately
/// as [`ClientError::Io`] — the request may have reached the server.
#[derive(Debug, Clone)]
pub struct ServiceClient {
    addr: SocketAddr,
    connect_attempts: u32,
    connect_backoff: Duration,
}

impl ServiceClient {
    /// A client for the service at `addr` with the default connect-retry
    /// budget (3 attempts, 1 ms base backoff).
    pub fn new(addr: SocketAddr) -> Self {
        ServiceClient {
            addr,
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(1),
        }
    }

    /// Overrides the connect-retry budget: `attempts` total connection
    /// attempts (minimum 1) with `base_backoff` before the first retry,
    /// doubling per attempt and capped at 100 ms. Once the budget is
    /// spent the call fails with [`ClientError::Unreachable`].
    pub fn with_connect_retry(mut self, attempts: u32, base_backoff: Duration) -> Self {
        self.connect_attempts = attempts.max(1);
        self.connect_backoff = base_backoff;
        self
    }

    fn connect(&self) -> Result<TcpStream, ClientError> {
        let mut backoff = self.connect_backoff;
        let mut last = String::new();
        for attempt in 1..=self.connect_attempts {
            match TcpStream::connect(self.addr) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = e.to_string(),
            }
            if attempt < self.connect_attempts {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
        }
        Err(ClientError::Unreachable {
            attempts: self.connect_attempts,
            last,
        })
    }

    fn call(&self, method: &str, path: &str, body: &str) -> Result<(u16, Json), ClientError> {
        let mut stream = self.connect()?;
        write_request(&mut stream, method, path, body)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let msg = read_message(&mut stream).map_err(|e| ClientError::Io(e.to_string()))?;
        let status = response_status(&msg).map_err(|e| ClientError::Io(e.to_string()))?;
        let doc = Json::parse(&msg.body).map_err(|e| ClientError::Decode(e.to_string()))?;
        if status >= 400 {
            let kind = doc
                .field("error", "error body")
                .and_then(|k| k.as_str("error kind").map(str::to_string))
                .unwrap_or_else(|_| "unknown".to_string());
            let message = doc
                .field("message", "error body")
                .and_then(|m| m.as_str("error message").map(str::to_string))
                .unwrap_or_default();
            return Err(ClientError::Server {
                status,
                kind,
                message,
            });
        }
        Ok((status, doc))
    }

    /// Submits a circuit, returning the job id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with status 429 when the service sheds
    /// load (see [`ClientError::is_overloaded`]).
    pub fn submit(
        &self,
        circuit: &Circuit,
        measured: &[usize],
        config: &QuTracerConfig,
    ) -> Result<u64, ClientError> {
        let body = crate::json::obj([
            ("circuit", wire::circuit_to_json(circuit)),
            (
                "measured",
                Json::Arr(measured.iter().map(|&q| Json::Num(q as f64)).collect()),
            ),
            ("config", wire::config_to_json(config)),
        ])
        .to_string();
        let (_, doc) = self.call("POST", "/submit", &body)?;
        doc.field("job_id", "submit response")
            .and_then(|id| id.as_usize("job_id"))
            .map(|id| id as u64)
            .map_err(ClientError::Decode)
    }

    /// Submits a circuit as a finite-shot mitigation session under
    /// `policy`, returning the job id. The server executes the session's
    /// jobs once through its batcher and cache and samples every round
    /// from them; the served report is bit-identical to running the same
    /// session offline.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::submit`]; additionally HTTP 400 for a malformed
    /// policy and 500 for an unfundable shot budget.
    pub fn submit_sampled(
        &self,
        circuit: &Circuit,
        measured: &[usize],
        config: &QuTracerConfig,
        total_shots: u64,
        policy: &qt_core::ShotPolicy,
        seed: u64,
    ) -> Result<u64, ClientError> {
        let body = crate::json::obj([
            ("circuit", wire::circuit_to_json(circuit)),
            (
                "measured",
                Json::Arr(measured.iter().map(|&q| Json::Num(q as f64)).collect()),
            ),
            ("config", wire::config_to_json(config)),
            (
                "sampling",
                crate::json::obj([
                    ("total_shots", crate::json::u64_str(total_shots)),
                    ("policy", wire::shot_policy_to_json(policy)),
                    ("seed", crate::json::u64_str(seed)),
                ]),
            ),
        ])
        .to_string();
        let (_, doc) = self.call("POST", "/submit", &body)?;
        doc.field("job_id", "submit response")
            .and_then(|id| id.as_usize("job_id"))
            .map(|id| id as u64)
            .map_err(ClientError::Decode)
    }

    /// Fetches a finished report, `None` while the job is in flight.
    pub fn result(&self, job: u64) -> Result<Option<QuTracerReport>, ClientError> {
        let (status, doc) = self.call("GET", &format!("/result/{job}"), "")?;
        if status == 202 {
            return Ok(None);
        }
        wire::report_from_json(&doc)
            .map(Some)
            .map_err(ClientError::Decode)
    }

    /// Polls `result` until the job finishes or `timeout` elapses (a
    /// timeout past what the clock can represent polls without bound).
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when time runs out; any transport or
    /// server error as soon as it occurs.
    pub fn wait_result(&self, job: u64, timeout: Duration) -> Result<QuTracerReport, ClientError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut backoff = Duration::from_micros(200);
        loop {
            if let Some(report) = self.result(job)? {
                return Ok(report);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(ClientError::Timeout { job });
            }
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(10));
        }
    }

    /// Raw service counters (the `/stats` document).
    pub fn stats(&self) -> Result<Json, ClientError> {
        Ok(self.call("GET", "/stats", "")?.1)
    }
}
