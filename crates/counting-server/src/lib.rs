//! An HTTP/1.1 admission and id service in front of the multi-tenant
//! counter registry — the layer that turns "millions of users" from a
//! thread loop into connections.
//!
//! Every endpoint is a thin transport over a [`counting_service`]
//! adapter, so the serving path inherits the Fetch&Increment contract
//! (unique, dense values from each tenant's counter) end to end:
//!
//! - `GET /ticket/{tenant}` — draw a waiting-room ticket
//!   ([`counting_service::TicketGate::acquire`])
//! - `GET /admit/{tenant}?n=` — release up to `n` waiting-room slots
//! - `GET /status/{tenant}?ticket=` — waiting-room snapshot / admission poll
//! - `GET /lease/{tenant}?k=` — reserve a contiguous id block
//! - `GET /rate/{tenant}?window=` — windowed rate-limit admission
//!
//! The server is deliberately plain: a blocking accept loop feeding a
//! fixed worker-thread pool (see [`server`] for why there is no async
//! runtime), a hand-rolled request parser covering exactly the subset
//! the endpoints need ([`http`]), and JSON bodies serialized with the
//! vendored `serde_json`. The interesting concurrency stays in the
//! registry's tenant counters: one atomic word each, advanced by one
//! `fetch_add` per reservation.
//!
//! # Quickstart
//!
//! ```
//! use counting_server::client::ClientConnection;
//! use counting_server::router::TicketBody;
//! use counting_server::server::CountingServer;
//! use counting_server::state::ServerConfig;
//!
//! let server = CountingServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = ClientConnection::new(server.local_addr());
//!
//! let response = client.get("/ticket/checkout").unwrap();
//! let body: TicketBody = serde_json::from_str(&response.body).unwrap();
//! assert_eq!(body.ticket, 0, "first arrival gets ticket 0");
//!
//! server.shutdown(); // joins every worker thread
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod router;
pub mod server;
pub mod state;

pub use client::{ClientConnection, ClientResponse};
pub use router::{AdmitBody, LeaseBody, RateBody, StatusBody, TicketBody};
pub use server::CountingServer;
pub use state::{AppState, ServerConfig, ServerStats};
