//! The HTTP front end: one bounded-parse request per connection, routed to
//! the [`Service`]. Connections are handled serially with short socket
//! timeouts — every endpoint is a quick registry operation (identification
//! work happens on the worker pool), so a slow client can delay, never
//! wedge, the server.

use crate::http::{read_request, write_response, HttpError, Limits, Request};
use crate::service::{Service, SubmitError};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn error_body(message: &str) -> String {
    crate::JsonValue::Object(vec![(
        "error".to_string(),
        crate::JsonValue::string(message),
    )])
    .to_string()
}

fn respond(stream: &mut TcpStream, status: u16, headers: &[(&str, &str)], body: &str) {
    // The client may already be gone; nothing useful to do about it.
    let _ = write_response(stream, status, headers, body);
}

fn route(service: &Arc<Service>, request: &Request) -> (u16, Vec<(String, String)>, String) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (200, Vec::new(), "{\"status\":\"ok\"}".to_string()),
        ("GET", ["readyz"]) => {
            if service.is_draining() {
                (503, Vec::new(), "{\"status\":\"draining\"}".to_string())
            } else {
                (200, Vec::new(), "{\"status\":\"ready\"}".to_string())
            }
        }
        ("POST", ["jobs"]) => {
            let body = match std::str::from_utf8(&request.body) {
                Ok(text) => text,
                Err(_) => return (400, Vec::new(), error_body("body is not UTF-8")),
            };
            match service.submit(body) {
                Ok((id, state, cached)) => {
                    let doc = crate::JsonValue::Object(vec![
                        ("id".to_string(), id.into()),
                        ("state".to_string(), crate::JsonValue::string(state.name())),
                        ("cached".to_string(), cached.into()),
                    ]);
                    (202, Vec::new(), doc.to_string())
                }
                Err(SubmitError::Draining) => {
                    (503, Vec::new(), error_body("draining for shutdown"))
                }
                Err(SubmitError::Full) => (
                    503,
                    vec![("Retry-After".to_string(), "1".to_string())],
                    error_body("job queue full; retry later"),
                ),
                Err(SubmitError::Invalid(message)) => (400, Vec::new(), error_body(&message)),
                Err(SubmitError::Internal(message)) => (500, Vec::new(), error_body(&message)),
            }
        }
        (method, ["jobs", id_text]) => match id_text.parse::<u64>() {
            Err(_) => (404, Vec::new(), error_body("no such job")),
            Ok(id) => match method {
                "GET" => match service.status_json(id) {
                    Some(body) => (200, Vec::new(), body),
                    None => (404, Vec::new(), error_body("no such job")),
                },
                "DELETE" => match service.cancel(id) {
                    Some(body) => (200, Vec::new(), body),
                    None => (404, Vec::new(), error_body("no such job")),
                },
                _ => (405, Vec::new(), error_body("method not allowed")),
            },
        },
        ("POST", ["shutdown"]) => {
            let now = request.query.split('&').any(|pair| pair == "mode=now");
            service.request_shutdown(now);
            (200, Vec::new(), "{\"status\":\"draining\"}".to_string())
        }
        ("GET" | "DELETE", ["jobs"]) | (_, ["healthz" | "readyz" | "shutdown"]) => {
            (405, Vec::new(), error_body("method not allowed"))
        }
        _ => (404, Vec::new(), error_body("no such endpoint")),
    }
}

fn handle(service: &Arc<Service>, mut stream: TcpStream, limits: &Limits) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    match read_request(&mut reader, limits) {
        Ok(request) => {
            let (status, headers, body) = route(service, &request);
            let header_refs: Vec<(&str, &str)> = headers
                .iter()
                .map(|(name, value)| (name.as_str(), value.as_str()))
                .collect();
            respond(&mut stream, status, &header_refs, &body);
        }
        Err(HttpError { status, message }) => {
            respond(&mut stream, status, &[], &error_body(&message));
        }
    }
}

/// Serves until a requested shutdown finishes draining, then returns. Status
/// polls keep working throughout the drain.
///
/// The loop blocks in `accept`, so a request is answered when it arrives;
/// the drain wakes it with one connection of its own when it completes.
/// Every accepted connection is handled before the loop looks at the drain,
/// so a request that arrives at shutdown is still answered.
pub fn serve(listener: TcpListener, service: Arc<Service>) -> std::io::Result<()> {
    let limits = Limits::default();
    service.wake_on_shutdown(listener.local_addr()?);
    while !service.is_shutdown_complete() {
        let (stream, _) = listener.accept()?;
        handle(&service, stream, &limits);
    }
    Ok(())
}
