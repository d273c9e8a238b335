//! Framed-TCP transport: [`TcpService`] serves a [`ServiceStack`] over a
//! `std::net` listener, [`TcpClient`] speaks the same frames from the other
//! end.
//!
//! One length-prefixed request frame in, one response frame out, pipelined
//! per connection; each accepted connection gets its own thread, so clients
//! are isolated from each other's latency.  Both ends set `TCP_NODELAY`.  A
//! body that does not decode inside an intact frame answers with an
//! [`InvalidRequest`](sigma_core::ServiceCode::InvalidRequest) envelope; a
//! torn stream or an over-cap length closes the connection.

use crate::builder::ServiceStack;
use crate::codec::{self, CodecError};
use crate::{RequestEnvelope, ResponseEnvelope};
use parking_lot::Mutex;
use sigma_core::ServiceCode;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Live connections by id: a clone of each stream, so shutdown can sever a
/// thread blocked on its client's next frame, and that thread.  A thread
/// removes its entry when it exits, which closes the clone.
type Registry = Arc<Mutex<HashMap<u64, (TcpStream, JoinHandle<()>)>>>;

/// Pause after a failed `accept` (e.g. out of descriptors), doubled on each
/// failure in a row up to the maximum.
const ACCEPT_BACKOFF: (Duration, Duration) = (Duration::from_millis(5), Duration::from_secs(1));

/// A running framed-TCP server in front of a [`ServiceStack`].
///
/// Dropping the handle shuts the server down and joins every connection
/// thread.
#[derive(Debug)]
pub struct TcpService {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Registry,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpService {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral test port) and starts
    /// accepting connections, each served on its own thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error verbatim.
    pub fn bind(addr: impl ToSocketAddrs, stack: Arc<ServiceStack>) -> io::Result<TcpService> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = Registry::default();
        let (accept_shutdown, accept_conns) = (shutdown.clone(), conns.clone());
        let accept_thread = std::thread::Builder::new()
            .name("sigma-service-accept".into())
            .spawn(move || {
                let mut backoff = ACCEPT_BACKOFF.0;
                for id in 0u64.. {
                    let accepted = listener.accept();
                    if accept_shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok((stream, _)) = accepted else {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF.1);
                        continue;
                    };
                    backoff = ACCEPT_BACKOFF.0;
                    let Ok(clone) = stream.set_nodelay(true).and_then(|()| stream.try_clone())
                    else {
                        continue;
                    };
                    // Spawn and insert under the lock the thread's removal
                    // takes, so a connection that ends at once leaves no entry.
                    let mut registry = accept_conns.lock();
                    let (stack, conns) = (stack.clone(), accept_conns.clone());
                    if let Ok(thread) = std::thread::Builder::new()
                        .name("sigma-service-conn".into())
                        .spawn(move || {
                            serve_connection(&stream, &stack);
                            conns.lock().remove(&id);
                        })
                    {
                        registry.insert(id, (clone, thread));
                    }
                }
            })?;
        Ok(TcpService {
            local_addr,
            shutdown,
            conns,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, severs live connections, joins every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // `accept` blocks in accept(2); poke it awake with a throwaway
        // connection so the loop observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Nothing registers any more.  Connection threads block until their
        // client's next frame; sever the streams so they see EOF and exit.
        let live = std::mem::take(&mut *self.conns.lock());
        for (stream, _) in live.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, thread) in live.into_values() {
            let _ = thread.join();
        }
    }
}

impl Drop for TcpService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(stream: &TcpStream, stack: &ServiceStack) {
    let mut reader = BufReader::new(stream);
    loop {
        let response = match codec::read_request(&mut reader) {
            Ok(req) => stack.call(req),
            // Clean disconnect, torn stream or an untrusted length: stop.
            Err(CodecError::Io(_) | CodecError::FrameTooLarge { .. }) => return,
            // The rest of the bad frame was skipped, so the stream is still
            // in sync; answer the bad body and keep the connection.
            Err(err) => ResponseEnvelope {
                code: ServiceCode::InvalidRequest,
                message: format!("undecodable request: {}", err),
                ..ResponseEnvelope::ok(0)
            },
        };
        if codec::write_response(&mut &*stream, &response).is_err() {
            return;
        }
    }
}

/// A blocking framed-TCP client for [`TcpService`].
#[derive(Debug)]
pub struct TcpClient {
    stream: BufReader<TcpStream>,
}

impl TcpClient {
    /// Connects to a running service.
    ///
    /// # Errors
    ///
    /// Returns the connect error verbatim.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            stream: BufReader::new(stream),
        })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on socket failure or an undecodable response
    /// frame.  Service-level rejections are *not* errors — they come back as
    /// envelopes with a non-[`Ok`](ServiceCode::Ok) code, exactly like the
    /// in-process transport.
    pub fn call(&mut self, req: &RequestEnvelope) -> Result<ResponseEnvelope, CodecError> {
        codec::write_request(&mut self.stream.get_ref(), req)?;
        codec::read_response(&mut self.stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::is_clean_eof;
    use crate::middleware::{RateLimit, TenantQuota, TokenAuth};
    use crate::{Operation, ServiceBuilder};
    use sigma_core::{DedupCluster, SigmaConfig};
    use std::io::Write;

    fn serve_default_stack() -> (TcpService, Arc<ServiceStack>) {
        let cluster = Arc::new(DedupCluster::with_similarity_router(
            2,
            SigmaConfig::default(),
        ));
        let stack = Arc::new(
            ServiceBuilder::default_stack(
                TokenAuth::new().tenant("acme", "s3cret"),
                TenantQuota::new().budget("acme", 64 << 20),
                RateLimit::new(1000, 1000.0),
            )
            .build(cluster),
        );
        let service = TcpService::bind("127.0.0.1:0", stack.clone()).unwrap();
        (service, stack)
    }

    #[test]
    fn loopback_backup_restore_round_trip() {
        let (mut service, _stack) = serve_default_stack();
        let mut client = TcpClient::connect(service.local_addr()).unwrap();
        let payload = vec![0x5A; 200_000];
        let backup = client
            .call(
                &RequestEnvelope::new(
                    1,
                    "acme",
                    Operation::Backup {
                        file_name: "wire.bin".into(),
                        generation: 0,
                    },
                )
                .with_payload(payload.clone())
                .with_token("s3cret"),
            )
            .unwrap();
        assert!(backup.is_ok(), "{:?}", backup.message);
        let file_id = backup.metadata_u64(crate::backend::FILE_ID_KEY).unwrap();
        let restore = client
            .call(
                &RequestEnvelope::new(2, "acme", Operation::Restore { file_id })
                    .with_token("s3cret"),
            )
            .unwrap();
        assert_eq!(restore.payload, payload, "byte-identical over the wire");
        service.shutdown();
    }

    #[test]
    fn rejections_travel_as_envelopes_not_errors() {
        let (mut service, _stack) = serve_default_stack();
        let mut client = TcpClient::connect(service.local_addr()).unwrap();
        let resp = client
            .call(&RequestEnvelope::new(3, "acme", Operation::Stats).with_token("wrong"))
            .unwrap();
        assert_eq!(resp.code, ServiceCode::Unauthorized);
        // The connection survives a rejection.
        let resp = client
            .call(&RequestEnvelope::new(4, "acme", Operation::Stats).with_token("s3cret"))
            .unwrap();
        assert!(resp.is_ok());
        service.shutdown();
    }

    #[test]
    fn concurrent_clients_are_isolated() {
        let (mut service, _stack) = serve_default_stack();
        let addr = service.local_addr();
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = TcpClient::connect(addr).unwrap();
                    let payload = vec![i as u8; 10_000 + i as usize];
                    let backup = client
                        .call(
                            &RequestEnvelope::new(
                                i,
                                "acme",
                                Operation::Backup {
                                    file_name: format!("f{}", i),
                                    generation: 0,
                                },
                            )
                            .with_payload(payload.clone())
                            .with_token("s3cret"),
                        )
                        .unwrap();
                    assert!(backup.is_ok(), "{:?}", backup.message);
                    assert_eq!(backup.request_id, i, "correlator echoes back");
                    let file_id = backup.metadata_u64(crate::backend::FILE_ID_KEY).unwrap();
                    let restore = client
                        .call(
                            &RequestEnvelope::new(100 + i, "acme", Operation::Restore { file_id })
                                .with_token("s3cret"),
                        )
                        .unwrap();
                    assert_eq!(restore.payload, payload);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        service.shutdown();
    }

    #[test]
    fn undecodable_request_answers_invalid_request() {
        let (mut service, _stack) = serve_default_stack();
        let stream = TcpStream::connect(service.local_addr()).unwrap();
        let mut reader = BufReader::new(&stream);
        (&stream)
            .write_all(&[4, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF])
            .unwrap();
        let resp = codec::read_response(&mut reader).unwrap();
        assert_eq!(resp.code, ServiceCode::InvalidRequest);
        // The server skipped to the frame boundary: the same connection
        // still answers a valid request.
        let stats = RequestEnvelope::new(6, "acme", Operation::Stats).with_token("s3cret");
        codec::write_request(&mut &stream, &stats).unwrap();
        let resp = codec::read_response(&mut reader).unwrap();
        assert!(resp.is_ok(), "{:?}", resp.message);
        assert_eq!(resp.request_id, 6);
        service.shutdown();
    }

    #[test]
    fn accepted_streams_set_nodelay() {
        let (mut service, _stack) = serve_default_stack();
        let mut client = TcpClient::connect(service.local_addr()).unwrap();
        let stats = RequestEnvelope::new(1, "acme", Operation::Stats).with_token("s3cret");
        assert!(client.call(&stats).unwrap().is_ok());
        let registry = service.conns.lock();
        assert_eq!(registry.len(), 1);
        assert!(registry
            .values()
            .all(|(stream, _)| stream.nodelay().unwrap()));
        drop(registry);
        service.shutdown();
    }

    #[test]
    fn closed_connections_leave_the_registry() {
        let (mut service, _stack) = serve_default_stack();
        for i in 0..64 {
            let mut client = TcpClient::connect(service.local_addr()).unwrap();
            let stats = RequestEnvelope::new(i, "acme", Operation::Stats).with_token("s3cret");
            assert!(client.call(&stats).unwrap().is_ok());
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !service.conns.lock().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "{} closed connections still registered",
                service.conns.lock().len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        service.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let (mut service, _stack) = serve_default_stack();
        service.shutdown();
        service.shutdown();
        drop(service);
    }

    #[test]
    fn clean_client_disconnect_is_quiet() {
        let (mut service, _stack) = serve_default_stack();
        {
            let mut client = TcpClient::connect(service.local_addr()).unwrap();
            let resp = client
                .call(&RequestEnvelope::new(1, "acme", Operation::Stats).with_token("s3cret"))
                .unwrap();
            assert!(resp.is_ok());
        } // client drops: connection thread sees EOF and exits.
        service.shutdown();
    }

    #[test]
    fn clean_eof_helper_matches_disconnect() {
        let err = CodecError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(is_clean_eof(&err));
        let err = CodecError::UnknownKind(9);
        assert!(!is_clean_eof(&err));
    }
}
