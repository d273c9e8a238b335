//! Per-tenant token-bucket rate limiting.

use crate::middleware::{Middleware, Next, ServiceResult};
use crate::RequestEnvelope;
use parking_lot::Mutex;
use sigma_core::SigmaError;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source for the bucket refill.
///
/// Production uses [`SystemClock`]; tests inject a [`ManualClock`] so refill
/// behaviour is deterministic.
pub trait RateLimitClock: Send + Sync {
    /// Monotonic elapsed time since an arbitrary fixed epoch.
    fn now(&self) -> Duration;
}

/// [`Instant`]-backed clock (the default).
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock {
            epoch: Instant::now(),
        }
    }
}

impl RateLimitClock for SystemClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A hand-advanced clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: Mutex<Duration>,
}

impl ManualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `delta`.
    pub fn advance(&self, delta: Duration) {
        *self.now.lock() += delta;
    }
}

impl RateLimitClock for ManualClock {
    fn now(&self) -> Duration {
        *self.now.lock()
    }
}

/// Fixed-point token scale: one token is one billion nanotokens.
///
/// The bucket accounts in integer nanotokens rather than an `f64` token
/// count.  With floating accumulation, ten 1-second refills at 0.1 tokens/s
/// summed to `0.9999999999999999` — strictly below the 1-token grant
/// threshold — so a tenant polling every second at a low rate was starved
/// forever, while a single 10-second refill was granted.  Each refill now
/// converts its elapsed nanoseconds to nanotokens with one *rounded*
/// multiplication (error ≤ half a nanotoken per refill, never compounding
/// across the grant threshold), and grants compare integers.
const NANOTOKENS_PER_TOKEN: u128 = 1_000_000_000;

/// One tenant's bucket: whole nanotokens plus the last refill instant.
#[derive(Debug)]
struct Bucket {
    nanotokens: u128,
    refreshed: Duration,
}

/// Token-bucket rate limiter, one bucket per tenant.
///
/// Every request costs one token.  A bucket starts full at `capacity` (the
/// burst allowance) and refills continuously at `refill_per_sec`.  A request
/// arriving at an empty bucket is rejected with [`SigmaError::RateLimited`]
/// (code [`ResourceExhausted`](sigma_core::ServiceCode::ResourceExhausted))
/// carrying the milliseconds until one token is available — without reaching
/// any lower layer.
///
/// # Example
///
/// ```
/// use sigma_service::middleware::{ManualClock, RateLimit};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let clock = Arc::new(ManualClock::new());
/// let limiter = RateLimit::new(2, 1.0).with_clock(clock.clone());
/// assert!(limiter.try_acquire("t").is_ok());
/// assert!(limiter.try_acquire("t").is_ok());
/// assert!(limiter.try_acquire("t").is_err(), "burst of 2 exhausted");
/// clock.advance(Duration::from_secs(1));
/// assert!(limiter.try_acquire("t").is_ok(), "refilled one token");
/// ```
pub struct RateLimit {
    capacity: u64,
    refill_per_sec: f64,
    clock: Arc<dyn RateLimitClock>,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl std::fmt::Debug for RateLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RateLimit")
            .field("capacity", &self.capacity)
            .field("refill_per_sec", &self.refill_per_sec)
            .finish_non_exhaustive()
    }
}

impl RateLimit {
    /// Creates a limiter where every tenant gets a bucket of `capacity`
    /// tokens refilling at `refill_per_sec` tokens per second
    /// (`0.0` = no refill: a hard cap of `capacity` requests, useful in
    /// tests).  Negative or non-finite refill rates are treated as `0.0`.
    pub fn new(capacity: u64, refill_per_sec: f64) -> Self {
        let refill = if refill_per_sec.is_finite() && refill_per_sec > 0.0 {
            refill_per_sec
        } else {
            0.0
        };
        RateLimit {
            capacity,
            refill_per_sec: refill,
            clock: Arc::new(SystemClock::default()),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Substitutes the time source (deterministic tests).
    pub fn with_clock(mut self, clock: Arc<dyn RateLimitClock>) -> Self {
        self.clock = clock;
        self
    }

    /// The burst capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Takes one token from the tenant's bucket.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::RateLimited`] when the bucket is empty.
    pub fn try_acquire(&self, tenant: &str) -> Result<(), SigmaError> {
        let now = self.clock.now();
        let cap = u128::from(self.capacity) * NANOTOKENS_PER_TOKEN;
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            nanotokens: cap,
            refreshed: now,
        });
        // One rounded conversion per refill: elapsed nanoseconds × tokens/s
        // is nanotokens directly (both scales are 1e9), so the only error is
        // the final rounding — at most half a nanotoken, and it does not
        // accumulate multiplicatively across calls.
        let elapsed_nanos = now.saturating_sub(bucket.refreshed).as_nanos();
        let refill = (elapsed_nanos as f64 * self.refill_per_sec).round() as u128;
        bucket.nanotokens = bucket.nanotokens.saturating_add(refill).min(cap);
        bucket.refreshed = now;
        if bucket.nanotokens >= NANOTOKENS_PER_TOKEN {
            bucket.nanotokens -= NANOTOKENS_PER_TOKEN;
            Ok(())
        } else {
            let retry_after_ms = if self.refill_per_sec > 0.0 {
                let deficit_tokens =
                    (NANOTOKENS_PER_TOKEN - bucket.nanotokens) as f64 / NANOTOKENS_PER_TOKEN as f64;
                (deficit_tokens / self.refill_per_sec * 1000.0).ceil() as u64
            } else {
                0
            };
            Err(SigmaError::RateLimited {
                tenant: tenant.to_string(),
                retry_after_ms,
            })
        }
    }
}

impl Middleware for RateLimit {
    fn name(&self) -> &'static str {
        "rate-limit"
    }

    fn handle(&self, req: RequestEnvelope, next: &dyn Next) -> ServiceResult {
        self.try_acquire(&req.tenant)?;
        next.run(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Operation, ResponseEnvelope, ServiceBuilder};
    use sigma_core::ServiceCode;

    #[test]
    fn burst_then_reject_then_refill() {
        let clock = Arc::new(ManualClock::new());
        let limiter = RateLimit::new(3, 2.0).with_clock(clock.clone());
        for _ in 0..3 {
            assert!(limiter.try_acquire("t").is_ok());
        }
        let err = limiter.try_acquire("t").unwrap_err();
        match err {
            SigmaError::RateLimited { retry_after_ms, .. } => {
                assert_eq!(retry_after_ms, 500, "one token at 2/s is 500 ms away");
            }
            other => panic!("expected RateLimited, got {:?}", other),
        }
        clock.advance(Duration::from_millis(500));
        assert!(limiter.try_acquire("t").is_ok());
        assert!(limiter.try_acquire("t").is_err(), "only one token refilled");
    }

    #[test]
    fn refill_never_exceeds_capacity() {
        let clock = Arc::new(ManualClock::new());
        let limiter = RateLimit::new(2, 100.0).with_clock(clock.clone());
        clock.advance(Duration::from_secs(3600));
        assert!(limiter.try_acquire("t").is_ok());
        assert!(limiter.try_acquire("t").is_ok());
        assert!(limiter.try_acquire("t").is_err(), "capped at capacity 2");
    }

    #[test]
    fn sub_interval_polling_accrues_the_same_tokens_as_one_shot_elapsed() {
        // Regression: with f64 token accumulation, ten 1-second refills at
        // 0.1 tokens/s summed to 0.9999999999999999 — below the 1.0 grant
        // threshold — so a tenant polling every second at a low rate starved
        // even though 10 elapsed seconds had earned a whole token.
        let polled_clock = Arc::new(ManualClock::new());
        let polled = RateLimit::new(1, 0.1).with_clock(polled_clock.clone());
        assert!(polled.try_acquire("t").is_ok(), "initial burst token");
        let mut granted = 0;
        for _ in 0..10 {
            polled_clock.advance(Duration::from_secs(1));
            if polled.try_acquire("t").is_ok() {
                granted += 1;
            }
        }
        assert_eq!(
            granted, 1,
            "ten 1-second refills at 0.1 tokens/s must sum to exactly one token"
        );

        // The one-shot control: same tenant behaviour with a single refill.
        let oneshot_clock = Arc::new(ManualClock::new());
        let oneshot = RateLimit::new(1, 0.1).with_clock(oneshot_clock.clone());
        assert!(oneshot.try_acquire("t").is_ok());
        oneshot_clock.advance(Duration::from_secs(10));
        assert!(oneshot.try_acquire("t").is_ok(), "10 s at 0.1/s is a token");
    }

    #[test]
    fn ragged_millisecond_polling_does_not_starve_low_rates() {
        // 2000 × 5 ms at 0.2 tokens/s is exactly two tokens; per-refill
        // rounding error is bounded by half a nanotoken and must never push
        // the accrual below a whole-token boundary.
        let clock = Arc::new(ManualClock::new());
        let limiter = RateLimit::new(1, 0.2).with_clock(clock.clone());
        assert!(limiter.try_acquire("t").is_ok(), "burst token");
        let mut granted = 0;
        for _ in 0..2000 {
            clock.advance(Duration::from_millis(5));
            if limiter.try_acquire("t").is_ok() {
                granted += 1;
            }
        }
        assert_eq!(granted, 2, "10 s of 5 ms polls at 0.2/s is two tokens");
    }

    #[test]
    fn tenants_have_independent_buckets() {
        let limiter = RateLimit::new(1, 0.0);
        assert!(limiter.try_acquire("a").is_ok());
        assert!(limiter.try_acquire("a").is_err());
        assert!(limiter.try_acquire("b").is_ok(), "b has its own bucket");
    }

    #[test]
    fn zero_refill_reports_no_retry_hint() {
        let limiter = RateLimit::new(0, 0.0);
        match limiter.try_acquire("t").unwrap_err() {
            SigmaError::RateLimited { retry_after_ms, .. } => assert_eq!(retry_after_ms, 0),
            other => panic!("expected RateLimited, got {:?}", other),
        }
    }

    #[test]
    fn pathological_refill_rates_degrade_to_zero() {
        for bad in [f64::NAN, f64::INFINITY, -5.0] {
            let limiter = RateLimit::new(1, bad);
            assert!(limiter.try_acquire("t").is_ok());
            assert!(limiter.try_acquire("t").is_err(), "rate {} acts as 0", bad);
        }
    }

    #[test]
    fn middleware_rejects_with_resource_exhausted() {
        let p = ServiceBuilder::new()
            .layer(std::sync::Arc::new(RateLimit::new(1, 0.0)))
            .build_with_backend(std::sync::Arc::new(|r: RequestEnvelope| {
                Ok(ResponseEnvelope::ok(r.request_id))
            }));
        assert!(p
            .call(RequestEnvelope::new(1, "t", Operation::Stats))
            .is_ok());
        let resp = p.call(RequestEnvelope::new(2, "t", Operation::Stats));
        assert_eq!(resp.code, ServiceCode::ResourceExhausted);
    }
}
