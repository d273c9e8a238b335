//! Token authentication: static per-tenant bearer secrets.

use crate::middleware::{Middleware, Next, ServiceResult};
use crate::RequestEnvelope;
use sigma_core::SigmaError;
use std::collections::HashMap;

/// Rejects any request whose [`token`](RequestEnvelope::token) does not match
/// the secret registered for its tenant.
///
/// Unknown tenants, missing tokens and wrong tokens are all rejected with the
/// same [`SigmaError::Unauthorized`] (code
/// [`Unauthorized`](sigma_core::ServiceCode::Unauthorized)), so a probe
/// cannot distinguish "tenant exists" from "wrong secret".
///
/// # Example
///
/// ```
/// use sigma_service::middleware::TokenAuth;
///
/// let auth = TokenAuth::new().tenant("acme", "s3cret");
/// assert!(auth.check("acme", Some("s3cret")).is_ok());
/// assert!(auth.check("acme", Some("wrong")).is_err());
/// assert!(auth.check("ghost", Some("s3cret")).is_err());
/// ```
#[derive(Debug, Default)]
pub struct TokenAuth {
    tokens: HashMap<String, String>,
}

impl TokenAuth {
    /// Creates an authenticator that knows no tenants (rejects everything).
    pub fn new() -> Self {
        TokenAuth::default()
    }

    /// Registers (or replaces) a tenant's secret.
    pub fn tenant(mut self, tenant: impl Into<String>, token: impl Into<String>) -> Self {
        self.tokens.insert(tenant.into(), token.into());
        self
    }

    /// Validates a `(tenant, token)` pair the way [`handle`](Middleware::handle)
    /// does.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::Unauthorized`] when the tenant is unknown, the
    /// token is missing, or it does not match.
    pub fn check(&self, tenant: &str, token: Option<&str>) -> Result<(), SigmaError> {
        let authorized = match (self.tokens.get(tenant), token) {
            (Some(expected), Some(presented)) => {
                constant_time_eq(expected.as_bytes(), presented.as_bytes())
            }
            _ => false,
        };
        if authorized {
            Ok(())
        } else {
            Err(SigmaError::Unauthorized {
                tenant: tenant.to_string(),
            })
        }
    }
}

/// Byte comparison whose running time depends only on the lengths, so token
/// checks do not leak how many prefix bytes matched.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

impl Middleware for TokenAuth {
    fn name(&self) -> &'static str {
        "auth"
    }

    fn handle(&self, req: RequestEnvelope, next: &dyn Next) -> ServiceResult {
        self.check(&req.tenant, req.token())?;
        next.run(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Operation, ResponseEnvelope, ServiceBuilder};
    use sigma_core::ServiceCode;
    use std::sync::Arc;

    fn pipeline(auth: TokenAuth) -> crate::ServiceStack {
        ServiceBuilder::new()
            .layer(Arc::new(auth))
            .build_with_backend(Arc::new(|r: RequestEnvelope| {
                Ok(ResponseEnvelope::ok(r.request_id))
            }))
    }

    #[test]
    fn valid_token_passes_through() {
        let p = pipeline(TokenAuth::new().tenant("acme", "secret"));
        let resp = p.call(RequestEnvelope::new(1, "acme", Operation::Stats).with_token("secret"));
        assert!(resp.is_ok());
    }

    #[test]
    fn missing_wrong_and_unknown_are_all_unauthorized() {
        let p = pipeline(TokenAuth::new().tenant("acme", "secret"));
        for req in [
            RequestEnvelope::new(2, "acme", Operation::Stats),
            RequestEnvelope::new(3, "acme", Operation::Stats).with_token("nope"),
            RequestEnvelope::new(4, "ghost", Operation::Stats).with_token("secret"),
        ] {
            let id = req.request_id;
            let resp = p.call(req);
            assert_eq!(resp.code, ServiceCode::Unauthorized, "request {}", id);
            assert_eq!(resp.request_id, id);
        }
    }

    #[test]
    fn constant_time_eq_basics() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn later_registration_replaces_the_secret() {
        let auth = TokenAuth::new().tenant("a", "one").tenant("a", "two");
        assert!(auth.check("a", Some("two")).is_ok());
        assert!(auth.check("a", Some("one")).is_err());
    }
}
