//! Endpoint dispatch: one function from parsed request to JSON response.
//!
//! | Route | Adapter | Semantics |
//! |---|---|---|
//! | `/ticket/{t}` | [`TicketGate::acquire`] | Draw a waiting-room ticket |
//! | `/admit/{t}?n=` | [`TicketGate::admit`] | Release up to `n` slots |
//! | `/status/{t}[?ticket=]` | [`TicketGate`] | Waiting-room snapshot / poll |
//! | `/lease/{t}?k=` | `TenantCounter::reserve_block` | Contiguous id block |
//! | `/rate/{t}?window=` | [`RateLimiter::try_acquire`] | Windowed admission |
//!
//! Methods are not distinguished: the service is an admission plane, not
//! a REST resource model, and every operation is a counter draw (safe to
//! retry at the protocol level, never idempotent in the payload). `GET`
//! keeps the load generator and `curl` trivial.
//!
//! [`TicketGate::acquire`]: counting_service::TicketGate::acquire
//! [`TicketGate::admit`]: counting_service::TicketGate::admit
//! [`TicketGate`]: counting_service::TicketGate
//! [`RateLimiter::try_acquire`]: counting_service::RateLimiter::try_acquire

use counting_service::RateLimiter;
use serde::{Deserialize, Serialize};

use crate::http::{Request, Response};
use crate::state::AppState;

/// Body of a `/ticket/{tenant}` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TicketBody {
    /// Tenant the ticket belongs to.
    pub tenant: String,
    /// The dense ticket number (position in the arrival order).
    pub ticket: u64,
    /// The gate's admission bound at response time.
    pub now_serving: u64,
    /// Whether the ticket was already admitted when drawn.
    pub admitted: bool,
}

/// Body of a `/lease/{tenant}?k=` response: the contiguous id block
/// `start..start + count`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseBody {
    /// Tenant the block was reserved from.
    pub tenant: String,
    /// First id in the block.
    pub start: u64,
    /// Number of ids in the block.
    pub count: u64,
}

/// Body of an `/admit/{tenant}?n=` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmitBody {
    /// Tenant whose gate was advanced.
    pub tenant: String,
    /// Slots requested by the caller.
    pub requested: u64,
    /// Slots actually granted (clamped to tickets dispensed so far).
    pub granted: u64,
    /// The admission bound after this release.
    pub now_serving: u64,
}

/// Body of a `/rate/{tenant}?window=` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateBody {
    /// Tenant whose limiter judged the request.
    pub tenant: String,
    /// The window the request named.
    pub window: u64,
    /// Whether the request fit the window's budget.
    pub admitted: bool,
    /// The per-window budget.
    pub limit: u64,
}

/// Body of a `/status/{tenant}[?ticket=]` response: a waiting-room
/// snapshot, plus the admission verdict for `ticket` when supplied.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusBody {
    /// Tenant being inspected.
    pub tenant: String,
    /// The gate's admission bound.
    pub now_serving: u64,
    /// Tickets dispensed so far.
    pub dispensed: u64,
    /// Tickets dispensed but not yet admitted.
    pub waiting: u64,
    /// Echo of the polled ticket, if one was supplied.
    pub ticket: Option<u64>,
    /// Admission verdict for the polled ticket, if one was supplied.
    pub admitted: Option<bool>,
}

fn json<T: Serialize>(body: &T) -> Response {
    match serde_json::to_string(body) {
        Ok(text) => Response::ok(text),
        Err(_) => Response { status: 500, body: "{\"error\":\"serialization\"}".to_owned() },
    }
}

/// Dispatches one request. `worker_id` feeds the counters' thread-id
/// argument so concurrent workers spread across balancer input wires.
pub fn route(state: &AppState, worker_id: usize, request: &Request) -> Response {
    let response = dispatch(state, worker_id, request);
    if response.status >= 400 {
        state.stats.client_errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    response
}

fn dispatch(state: &AppState, worker_id: usize, request: &Request) -> Response {
    use std::sync::atomic::Ordering::Relaxed;

    let [endpoint, tenant] = match request.segments.as_slice() {
        [e, t] => [e.as_str(), t.as_str()],
        _ => return Response::error(404, "expected /{endpoint}/{tenant}"),
    };
    if !AppState::valid_tenant(tenant) {
        return Response::error(400, "tenant names are [A-Za-z0-9._-], at most 64 bytes");
    }

    match endpoint {
        #[cfg(test)]
        "panic" => panic!("test-only panic trigger"),
        "ticket" => {
            let gate = state.gate(tenant);
            let ticket = gate.acquire(worker_id);
            let now_serving = gate.now_serving();
            state.stats.ticket.fetch_add(1, Relaxed);
            json(&TicketBody {
                tenant: tenant.to_owned(),
                ticket,
                now_serving,
                admitted: ticket < now_serving,
            })
        }
        "lease" => {
            let k = match request.query_u64("k") {
                Ok(k) => k.unwrap_or(1),
                Err(msg) => return Response::error(400, &msg),
            };
            if k == 0 || k > state.max_lease() as u64 {
                return Response::error(400, &format!("k must be in 1..={}", state.max_lease()));
            }
            let start = state.lease(tenant, worker_id, k as usize);
            state.stats.lease.fetch_add(1, Relaxed);
            json(&LeaseBody { tenant: tenant.to_owned(), start, count: k })
        }
        "admit" => {
            let n = match request.query_u64("n") {
                Ok(n) => n.unwrap_or(1),
                Err(msg) => return Response::error(400, &msg),
            };
            let gate = state.gate(tenant);
            let before = gate.now_serving();
            let now_serving = gate.admit(n);
            state.stats.admit.fetch_add(1, Relaxed);
            json(&AdmitBody {
                tenant: tenant.to_owned(),
                requested: n,
                // Lower bound under concurrent admits; exact when this
                // caller is the sole admitter (the usual deployment).
                granted: now_serving.saturating_sub(before),
                now_serving,
            })
        }
        "rate" => {
            let limiter = state.limiter(tenant);
            let window = match request.query_u64("window") {
                Ok(w) => w.unwrap_or_else(|| limiter.current_window()),
                Err(msg) => return Response::error(400, &msg),
            };
            if window >= RateLimiter::WINDOW_BOUND {
                let bound = RateLimiter::WINDOW_BOUND;
                return Response::error(400, &format!("window must be below {bound}"));
            }
            let admitted = limiter.try_acquire(worker_id, window);
            state.stats.rate.fetch_add(1, Relaxed);
            json(&RateBody { tenant: tenant.to_owned(), window, admitted, limit: limiter.limit() })
        }
        "status" => {
            let gate = state.gate(tenant);
            let ticket = match request.query_u64("ticket") {
                Ok(t) => t,
                Err(msg) => return Response::error(400, &msg),
            };
            let now_serving = gate.now_serving();
            let dispensed = gate.dispensed();
            state.stats.status.fetch_add(1, Relaxed);
            json(&StatusBody {
                tenant: tenant.to_owned(),
                now_serving,
                dispensed,
                waiting: dispensed.saturating_sub(now_serving),
                ticket,
                admitted: ticket.map(|t| gate.is_admitted(t)),
            })
        }
        _ => Response::error(404, "unknown endpoint"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServerConfig;

    fn req(path: &str) -> Request {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        match crate::http::read_request(&mut reader).unwrap() {
            crate::http::ReadOutcome::Request(r) => r,
            other => panic!("fixture should parse: {other:?}"),
        }
    }

    #[test]
    fn ticket_then_admit_then_status_round_trip() {
        let state = AppState::new(&ServerConfig::default());

        let resp = route(&state, 0, &req("/ticket/q"));
        assert_eq!(resp.status, 200);
        let body: TicketBody = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(body.ticket, 0);
        assert!(!body.admitted, "nothing admitted yet");

        let resp = route(&state, 0, &req("/admit/q?n=5"));
        let body: AdmitBody = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(body.requested, 5);
        assert_eq!(body.granted, 1, "only one ticket was dispensed");
        assert_eq!(body.now_serving, 1);

        let resp = route(&state, 0, &req("/status/q?ticket=0"));
        let body: StatusBody = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(body.admitted, Some(true));
        assert_eq!(body.waiting, 0);
    }

    #[test]
    fn lease_blocks_are_contiguous_and_validated() {
        let state = AppState::new(&ServerConfig::default());
        let resp = route(&state, 0, &req("/lease/ids?k=8"));
        let body: LeaseBody = serde_json::from_str(&resp.body).unwrap();
        assert_eq!((body.start, body.count), (0, 8));
        let resp = route(&state, 1, &req("/lease/ids"));
        let body: LeaseBody = serde_json::from_str(&resp.body).unwrap();
        assert_eq!((body.start, body.count), (8, 1), "k defaults to 1");

        assert_eq!(route(&state, 0, &req("/lease/ids?k=0")).status, 400);
        assert_eq!(route(&state, 0, &req("/lease/ids?k=9999999")).status, 400);
        assert_eq!(route(&state, 0, &req("/lease/ids?k=soon")).status, 400);
    }

    #[test]
    fn rate_windows_shed_after_the_budget() {
        let config = ServerConfig { rate_limit: 2, ..ServerConfig::default() };
        let state = AppState::new(&config);
        let admitted = (0..4)
            .map(|_| {
                let resp = route(&state, 0, &req("/rate/api?window=3"));
                let body: RateBody = serde_json::from_str(&resp.body).unwrap();
                assert_eq!(body.limit, 2);
                body.admitted
            })
            .collect::<Vec<_>>();
        assert_eq!(admitted, [true, true, false, false]);
    }

    #[test]
    fn a_window_past_the_limiters_bound_is_refused() {
        let state = AppState::new(&ServerConfig::default());
        let last = RateLimiter::WINDOW_BOUND - 1;
        assert_eq!(route(&state, 0, &req(&format!("/rate/api?window={last}"))).status, 200);
        let first_bad = RateLimiter::WINDOW_BOUND;
        assert_eq!(route(&state, 0, &req(&format!("/rate/api?window={first_bad}"))).status, 400);
        assert_eq!(route(&state, 0, &req(&format!("/rate/api?window={}", u64::MAX))).status, 400);
        assert_eq!(state.stats.client_errors.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn unknown_routes_and_bad_tenants_are_refused() {
        let state = AppState::new(&ServerConfig::default());
        assert_eq!(route(&state, 0, &req("/nope/q")).status, 404);
        assert_eq!(route(&state, 0, &req("/ticket")).status, 404);
        assert_eq!(route(&state, 0, &req("/ticket/a/b")).status, 404);
        assert_eq!(route(&state, 0, &req("/ticket/bad%20name")).status, 400);
        assert_eq!(state.stats.client_errors.load(std::sync::atomic::Ordering::Relaxed), 4);
    }
}
