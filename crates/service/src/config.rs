//! Config-driven middleware stacking: describe the stack as data, build it
//! with [`ServiceConfig::build`].
//!
//! The format is a strict subset of TOML (sections, `key = value` with
//! quoted strings, integers, floats and booleans, `#` comments) parsed by
//! hand because the build environment vendors no TOML crate.  Unknown
//! sections and keys are hard errors — a typo must not silently disable an
//! auth layer.
//!
//! ```toml
//! [auth.tokens]
//! acme = "s3cret"
//!
//! [quota.logical_bytes]
//! acme = 1073741824
//!
//! [rate_limit]
//! capacity = 100
//! refill_per_sec = 50.0
//!
//! [admission]
//! max_inflight_requests = 256
//! max_inflight_bytes = 268435456
//! retry_after_ms = 10
//!
//! [fair_scheduler]
//! quantum_bytes = 262144
//! max_tenant_inflight_bytes = 8388608
//! max_concurrent = 8
//!
//! [logging]
//! enabled = true
//!
//! [storage]
//! backend = "file"
//! dir = "/var/lib/sigma"
//! ```

use crate::builder::{ServiceBuilder, ServiceStack};
use crate::middleware::{AdmissionControl, FairScheduler, RateLimit, TenantQuota, TokenAuth};
use sigma_core::{DedupCluster, SigmaConfig, SigmaError};
use sigma_storage::BackendKind;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Token-bucket parameters of the rate-limit layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitConfig {
    /// Burst capacity (tokens per tenant bucket).
    pub capacity: u64,
    /// Refill rate in tokens per second (`0.0` = hard cap).
    pub refill_per_sec: f64,
}

/// Bounds of the admission-control layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum concurrent in-flight requests across all tenants.
    pub max_inflight_requests: u64,
    /// Maximum total in-flight payload bytes across all tenants.
    pub max_inflight_bytes: u64,
    /// Base retry-after hint in milliseconds for shed requests.
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight_requests: 256,
            max_inflight_bytes: 256 << 20,
            retry_after_ms: AdmissionControl::DEFAULT_RETRY_AFTER_MS,
        }
    }
}

/// Parameters of the deficit-round-robin fair-scheduler layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairSchedulerConfig {
    /// Bytes of deficit credit a tenant earns per scheduling round.
    pub quantum_bytes: u64,
    /// Cap on one tenant's concurrently executing payload bytes.
    pub max_tenant_inflight_bytes: u64,
    /// Cap on concurrently executing requests across all tenants.
    pub max_concurrent: u64,
}

impl Default for FairSchedulerConfig {
    fn default() -> Self {
        FairSchedulerConfig {
            quantum_bytes: 256 << 10,
            max_tenant_inflight_bytes: 8 << 20,
            max_concurrent: 8,
        }
    }
}

/// Storage-backend selection for the cluster the stack fronts.
///
/// Unlike the middleware sections this does not add a layer: it is applied
/// to the [`SigmaConfig`] the cluster is built from (see
/// [`ServiceConfig::apply_storage`]), so a deployment's persistence mode
/// lives in the same file as its middleware stack.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageConfig {
    /// Which [`StorageBackend`](sigma_storage::StorageBackend) nodes use.
    pub backend: BackendKind,
    /// Root directory for the `file` backend (one subdirectory per node).
    pub dir: Option<PathBuf>,
}

/// A declarative description of the middleware stack.
///
/// Layers whose section is absent are omitted from the stack; present layers
/// are assembled in the canonical order auth → admission → quota →
/// rate-limit → fair-scheduler → logging.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceConfig {
    /// Per-tenant bearer secrets; non-empty ⇒ auth layer.
    pub auth_tokens: BTreeMap<String, String>,
    /// Per-tenant logical-bytes budgets; non-empty ⇒ quota layer.
    pub quotas: BTreeMap<String, u64>,
    /// Rate-limit parameters; `Some` ⇒ rate-limit layer.
    pub rate_limit: Option<RateLimitConfig>,
    /// Admission-control bounds; `Some` ⇒ admission layer.
    pub admission: Option<AdmissionConfig>,
    /// Fair-scheduler parameters; `Some` ⇒ fair-scheduler layer.
    pub fair_scheduler: Option<FairSchedulerConfig>,
    /// Whether to stack the request-logging/metrics layer.
    pub logging: bool,
    /// Cluster storage-backend selection; `Some` ⇒ apply to the cluster's
    /// [`SigmaConfig`] via [`apply_storage`](Self::apply_storage).
    pub storage: Option<StorageConfig>,
}

impl ServiceConfig {
    /// Parses the TOML-subset text.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::InvalidConfig`] naming the offending line for
    /// syntax errors, unknown sections/keys, and ill-typed values.
    pub fn parse(text: &str) -> Result<ServiceConfig, SigmaError> {
        let mut config = ServiceConfig::default();
        let mut section = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                match section.as_str() {
                    "auth.tokens"
                    | "quota.logical_bytes"
                    | "rate_limit"
                    | "admission"
                    | "fair_scheduler"
                    | "logging"
                    | "storage" => {}
                    other => {
                        return Err(invalid(lineno, &format!("unknown section [{}]", other)));
                    }
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| invalid(lineno, "expected `key = value`"))?;
            let key = unquote(key.trim());
            let value = value.trim();
            match section.as_str() {
                "auth.tokens" => {
                    let token = parse_string(value)
                        .ok_or_else(|| invalid(lineno, "auth token must be a quoted string"))?;
                    config.auth_tokens.insert(key, token);
                }
                "quota.logical_bytes" => {
                    let bytes: u64 = value
                        .parse()
                        .map_err(|_| invalid(lineno, "quota must be an integer byte count"))?;
                    config.quotas.insert(key, bytes);
                }
                "rate_limit" => {
                    let limit = config.rate_limit.get_or_insert(RateLimitConfig {
                        capacity: 0,
                        refill_per_sec: 0.0,
                    });
                    match key.as_str() {
                        "capacity" => {
                            limit.capacity = value
                                .parse()
                                .map_err(|_| invalid(lineno, "capacity must be an integer"))?;
                        }
                        "refill_per_sec" => {
                            let rate: f64 = value
                                .parse()
                                .map_err(|_| invalid(lineno, "refill_per_sec must be a number"))?;
                            if !rate.is_finite() || rate < 0.0 {
                                return Err(invalid(
                                    lineno,
                                    "refill_per_sec must be finite and non-negative",
                                ));
                            }
                            limit.refill_per_sec = rate;
                        }
                        other => {
                            return Err(invalid(
                                lineno,
                                &format!("unknown rate_limit key `{}`", other),
                            ));
                        }
                    }
                }
                "admission" => {
                    let admission = config
                        .admission
                        .get_or_insert_with(AdmissionConfig::default);
                    let bound: u64 = value
                        .parse()
                        .map_err(|_| invalid(lineno, "admission bounds must be integers"))?;
                    match key.as_str() {
                        "max_inflight_requests" => admission.max_inflight_requests = bound,
                        "max_inflight_bytes" => admission.max_inflight_bytes = bound,
                        "retry_after_ms" => admission.retry_after_ms = bound,
                        other => {
                            return Err(invalid(
                                lineno,
                                &format!("unknown admission key `{}`", other),
                            ));
                        }
                    }
                }
                "fair_scheduler" => {
                    let sched = config
                        .fair_scheduler
                        .get_or_insert_with(FairSchedulerConfig::default);
                    let bound: u64 = value.parse().map_err(|_| {
                        invalid(lineno, "fair_scheduler parameters must be integers")
                    })?;
                    match key.as_str() {
                        "quantum_bytes" => sched.quantum_bytes = bound,
                        "max_tenant_inflight_bytes" => sched.max_tenant_inflight_bytes = bound,
                        "max_concurrent" => sched.max_concurrent = bound,
                        other => {
                            return Err(invalid(
                                lineno,
                                &format!("unknown fair_scheduler key `{}`", other),
                            ));
                        }
                    }
                }
                "logging" => match key.as_str() {
                    "enabled" => {
                        config.logging = match value {
                            "true" => true,
                            "false" => false,
                            _ => return Err(invalid(lineno, "enabled must be true or false")),
                        };
                    }
                    other => {
                        return Err(invalid(lineno, &format!("unknown logging key `{}`", other)));
                    }
                },
                "storage" => {
                    let storage = config.storage.get_or_insert_with(StorageConfig::default);
                    match key.as_str() {
                        "backend" => {
                            let name = parse_string(value).ok_or_else(|| {
                                invalid(lineno, "backend must be a quoted string")
                            })?;
                            storage.backend = BackendKind::parse(&name).ok_or_else(|| {
                                invalid(lineno, "backend must be \"memory\" or \"file\"")
                            })?;
                        }
                        "dir" => {
                            let dir = parse_string(value)
                                .ok_or_else(|| invalid(lineno, "dir must be a quoted string"))?;
                            storage.dir = Some(PathBuf::from(dir));
                        }
                        other => {
                            return Err(invalid(
                                lineno,
                                &format!("unknown storage key `{}`", other),
                            ));
                        }
                    }
                }
                "" => return Err(invalid(lineno, "key outside any section")),
                _ => unreachable!("sections are validated on entry"),
            }
        }
        Ok(config)
    }

    /// Converts the description into a [`ServiceBuilder`] with the layers in
    /// canonical order.
    pub fn into_builder(self) -> ServiceBuilder {
        let mut builder = ServiceBuilder::new();
        if !self.auth_tokens.is_empty() {
            let mut auth = TokenAuth::new();
            for (tenant, token) in self.auth_tokens {
                auth = auth.tenant(tenant, token);
            }
            builder = builder.auth(auth);
        }
        if let Some(adm) = self.admission {
            builder = builder.admission(
                AdmissionControl::new(adm.max_inflight_requests, adm.max_inflight_bytes)
                    .with_retry_after_ms(adm.retry_after_ms),
            );
        }
        if !self.quotas.is_empty() {
            let mut quota = TenantQuota::new();
            for (tenant, bytes) in self.quotas {
                quota = quota.budget(tenant, bytes);
            }
            builder = builder.quota(quota);
        }
        if let Some(limit) = self.rate_limit {
            builder = builder.rate_limit(RateLimit::new(limit.capacity, limit.refill_per_sec));
        }
        if let Some(sched) = self.fair_scheduler {
            builder = builder.fair_scheduler(FairScheduler::new(
                sched.quantum_bytes,
                sched.max_tenant_inflight_bytes,
                sched.max_concurrent as usize,
            ));
        }
        if self.logging {
            builder = builder.logging();
        }
        builder
    }

    /// Applies the `[storage]` section (if present) to a [`SigmaConfig`],
    /// returning the config the cluster should be built from.  A cluster
    /// built with `backend = "file"` over a `dir` that already holds node
    /// directories reopens their containers and index instead of starting
    /// empty.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::InvalidConfig`] when the resulting config fails
    /// validation — in particular `backend = "file"` without a `dir`.
    pub fn apply_storage(&self, mut config: SigmaConfig) -> Result<SigmaConfig, SigmaError> {
        if let Some(storage) = &self.storage {
            config.storage_backend = storage.backend;
            if let Some(dir) = &storage.dir {
                config.storage_root = Some(dir.clone());
            }
            config.validate()?;
        }
        Ok(config)
    }

    /// Parses and assembles in one step.
    ///
    /// The `[storage]` section is carried in the parsed description but not
    /// applied here — the cluster already exists; use
    /// [`apply_storage`](Self::apply_storage) before building the cluster
    /// when the config file should pick the persistence mode.
    ///
    /// # Errors
    ///
    /// Propagates [`ServiceConfig::parse`] errors.
    pub fn build(text: &str, cluster: Arc<DedupCluster>) -> Result<ServiceStack, SigmaError> {
        Ok(ServiceConfig::parse(text)?.into_builder().build(cluster))
    }
}

fn invalid(lineno: usize, msg: &str) -> SigmaError {
    SigmaError::InvalidConfig(format!("service config line {}: {}", lineno + 1, msg))
}

/// Drops a trailing `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Accepts both bare and quoted keys.
fn unquote(key: &str) -> String {
    parse_string(key).unwrap_or_else(|| key.to_string())
}

/// `Some(contents)` for a `"quoted string"`, `None` otherwise.
fn parse_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    // The subset deliberately has no escape sequences; a stray quote inside
    // would have unbalanced the strip above.
    if inner.contains('"') {
        return None;
    }
    Some(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Operation, RequestEnvelope};
    use sigma_core::{ServiceCode, SigmaConfig};

    const EXAMPLE: &str = r#"
# The reference stack.
[auth.tokens]
acme = "s3cret"      # inline comment
"dash-tenant" = "t2"

[quota.logical_bytes]
acme = 1048576

[rate_limit]
capacity = 10
refill_per_sec = 5.0

[admission]
max_inflight_requests = 32
max_inflight_bytes = 1048576
retry_after_ms = 7

[fair_scheduler]
quantum_bytes = 65536
max_tenant_inflight_bytes = 262144
max_concurrent = 4

[logging]
enabled = true
"#;

    #[test]
    fn parses_the_reference_config() {
        let c = ServiceConfig::parse(EXAMPLE).unwrap();
        assert_eq!(c.auth_tokens["acme"], "s3cret");
        assert_eq!(c.auth_tokens["dash-tenant"], "t2");
        assert_eq!(c.quotas["acme"], 1048576);
        assert_eq!(
            c.rate_limit,
            Some(RateLimitConfig {
                capacity: 10,
                refill_per_sec: 5.0
            })
        );
        assert_eq!(
            c.admission,
            Some(AdmissionConfig {
                max_inflight_requests: 32,
                max_inflight_bytes: 1048576,
                retry_after_ms: 7,
            })
        );
        assert_eq!(
            c.fair_scheduler,
            Some(FairSchedulerConfig {
                quantum_bytes: 65536,
                max_tenant_inflight_bytes: 262144,
                max_concurrent: 4,
            })
        );
        assert!(c.logging);
    }

    #[test]
    fn partial_admission_section_fills_defaults() {
        let c = ServiceConfig::parse("[admission]\nmax_inflight_requests = 9\n").unwrap();
        let adm = c.admission.unwrap();
        assert_eq!(adm.max_inflight_requests, 9);
        assert_eq!(
            adm.max_inflight_bytes,
            AdmissionConfig::default().max_inflight_bytes
        );
        assert_eq!(
            adm.retry_after_ms,
            AdmissionConfig::default().retry_after_ms
        );
    }

    #[test]
    fn builds_the_canonical_stack_order() {
        let cluster = Arc::new(DedupCluster::with_similarity_router(
            2,
            SigmaConfig::default(),
        ));
        let stack = ServiceConfig::build(EXAMPLE, cluster).unwrap();
        assert_eq!(
            stack.middleware_names(),
            vec![
                "auth",
                "admission",
                "quota",
                "rate-limit",
                "fair-scheduler",
                "logging"
            ]
        );
        // And it actually enforces: no token ⇒ unauthorized.
        let resp = stack.call(RequestEnvelope::new(1, "acme", Operation::Stats));
        assert_eq!(resp.code, ServiceCode::Unauthorized);
    }

    #[test]
    fn absent_sections_omit_layers() {
        let stack_desc = ServiceConfig::parse("[logging]\nenabled = true\n").unwrap();
        assert!(stack_desc.auth_tokens.is_empty());
        assert!(stack_desc.rate_limit.is_none());
        let cluster = Arc::new(DedupCluster::with_similarity_router(
            2,
            SigmaConfig::default(),
        ));
        let stack = stack_desc.into_builder().build(cluster);
        assert_eq!(stack.middleware_names(), vec!["logging"]);
        let empty = ServiceConfig::parse("").unwrap();
        assert_eq!(empty, ServiceConfig::default());
    }

    #[test]
    fn errors_name_the_line() {
        for (text, needle) in [
            ("[surprise]\n", "unknown section"),
            ("[auth.tokens]\nacme = 42\n", "quoted string"),
            ("[quota.logical_bytes]\nacme = \"many\"\n", "integer"),
            ("[rate_limit]\nburst = 5\n", "unknown rate_limit key"),
            ("[rate_limit]\nrefill_per_sec = -1.0\n", "non-negative"),
            ("[rate_limit]\nrefill_per_sec = inf\n", "non-negative"),
            ("[admission]\nslots = 5\n", "unknown admission key"),
            ("[admission]\nmax_inflight_bytes = lots\n", "integers"),
            (
                "[fair_scheduler]\nweight = 2\n",
                "unknown fair_scheduler key",
            ),
            ("[fair_scheduler]\nquantum_bytes = -3\n", "integers"),
            ("[logging]\nenabled = yes\n", "true or false"),
            ("stray = 1\n", "outside any section"),
            ("[logging]\nnonsense\n", "key = value"),
        ] {
            let err = ServiceConfig::parse(text).unwrap_err();
            match &err {
                SigmaError::InvalidConfig(msg) => {
                    assert!(msg.contains("line"), "{}", msg);
                    assert!(msg.contains(needle), "`{}` missing from `{}`", needle, msg);
                }
                other => panic!("expected InvalidConfig, got {:?}", other),
            }
            assert_eq!(err.code(), ServiceCode::InvalidRequest);
        }
    }

    #[test]
    fn storage_section_parses_and_applies() {
        let c =
            ServiceConfig::parse("[storage]\nbackend = \"file\"\ndir = \"/tmp/sig\"\n").unwrap();
        let storage = c.storage.as_ref().unwrap();
        assert_eq!(storage.backend, sigma_storage::BackendKind::File);
        assert_eq!(
            storage.dir.as_deref(),
            Some(std::path::Path::new("/tmp/sig"))
        );
        let applied = c.apply_storage(SigmaConfig::default()).unwrap();
        assert_eq!(applied.storage_backend, sigma_storage::BackendKind::File);
        assert!(applied.node_storage_dir(3).unwrap().ends_with("node-3"));

        // Absent section leaves the config untouched.
        let untouched = ServiceConfig::default()
            .apply_storage(SigmaConfig::default())
            .unwrap();
        assert_eq!(untouched, SigmaConfig::default());
    }

    #[test]
    fn storage_section_rejects_bad_values() {
        for (text, needle) in [
            ("[storage]\nbackend = \"tape\"\n", "backend must be"),
            (
                "[storage]\nbackend = \"sim-disk\"\n",
                "backend must be \"memory\" or \"file\"",
            ),
            ("[storage]\nbackend = file\n", "quoted string"),
            ("[storage]\nmedium = \"file\"\n", "unknown storage key"),
        ] {
            let err = ServiceConfig::parse(text).unwrap_err();
            match &err {
                SigmaError::InvalidConfig(msg) => {
                    assert!(msg.contains(needle), "`{}` missing from `{}`", needle, msg);
                }
                other => panic!("expected InvalidConfig, got {:?}", other),
            }
        }
        // A file backend without a directory fails at apply time.
        let c = ServiceConfig::parse("[storage]\nbackend = \"file\"\n").unwrap();
        let err = c.apply_storage(SigmaConfig::default()).unwrap_err();
        assert!(matches!(err, SigmaError::InvalidConfig(_)));
    }

    #[test]
    fn comments_inside_strings_survive() {
        let c = ServiceConfig::parse("[auth.tokens]\nacme = \"se#ret\"\n").unwrap();
        assert_eq!(c.auth_tokens["acme"], "se#ret");
    }
}
