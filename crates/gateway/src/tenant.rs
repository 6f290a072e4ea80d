//! Tenants, API keys and admission quotas.
//!
//! The gateway is multi-tenant: every submission carries an API key, and
//! the key resolves to a [`TenantId`] with a [`Quota`]. Quotas are checked
//! at submit time against *reserved* usage — a request charges its full
//! `input + output` token budget up front — so admission decisions depend
//! only on the submission sequence, never on execution progress.

use std::fmt;

/// Index of a registered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Admission limits for one tenant. `u64::MAX` fields are unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quota {
    /// Total requests the tenant may submit over the gateway's lifetime.
    pub max_requests: u64,
    /// Total tokens (input + output budget, reserved at submit) the
    /// tenant may consume over the gateway's lifetime.
    pub max_tokens: u64,
}

impl Quota {
    /// No limits.
    pub const UNLIMITED: Quota = Quota {
        max_requests: u64::MAX,
        max_tokens: u64::MAX,
    };

    /// A request-count cap with unlimited tokens.
    pub fn requests(max_requests: u64) -> Quota {
        Quota {
            max_requests,
            max_tokens: u64::MAX,
        }
    }

    /// A token cap with unlimited request count.
    pub fn tokens(max_tokens: u64) -> Quota {
        Quota {
            max_requests: u64::MAX,
            max_tokens,
        }
    }
}

/// One registered tenant with its running usage counters.
#[derive(Debug, Clone)]
pub(crate) struct Tenant {
    pub key: String,
    pub quota: Quota,
    pub used_requests: u64,
    pub used_tokens: u64,
}

impl Tenant {
    /// Whether a request reserving `tokens` fits the remaining quota.
    pub fn admits(&self, tokens: u64) -> bool {
        self.used_requests < self.quota.max_requests
            && self.used_tokens.saturating_add(tokens) <= self.quota.max_tokens
    }

    /// Reserves one request of `tokens` against the quota.
    pub fn charge(&mut self, tokens: u64) {
        self.used_requests += 1;
        self.used_tokens = self.used_tokens.saturating_add(tokens);
    }
}
