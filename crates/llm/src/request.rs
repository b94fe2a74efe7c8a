//! Serving requests.

use serde::{Deserialize, Serialize};

use aum_sim::time::SimTime;

/// Unique id of a serving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

/// One inference request from the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Request id (trace order).
    pub id: RequestId,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub input_len: usize,
    /// Output length in tokens (including the first token).
    pub output_len: usize,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if either length is zero.
    #[must_use]
    pub fn new(id: u64, arrival: SimTime, input_len: usize, output_len: usize) -> Self {
        assert!(input_len > 0, "prompt must be non-empty");
        assert!(output_len > 0, "output must be non-empty");
        Request {
            id: RequestId(id),
            arrival,
            input_len,
            output_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_carries_fields() {
        let r = Request::new(3, SimTime::from_secs(1), 755, 200);
        assert_eq!(r.id, RequestId(3));
        assert_eq!(r.input_len, 755);
        assert_eq!(r.output_len, 200);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_prompt_rejected() {
        let _ = Request::new(0, SimTime::ZERO, 0, 10);
    }

    #[test]
    fn ids_order() {
        assert!(RequestId(1) < RequestId(2));
    }
}
