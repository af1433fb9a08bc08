//! One validated configuration for a [`Workspace`](crate::Workspace).
//!
//! Every knob of the simulated machine — buffer capacity, pool
//! sharding and routing, the disk-arm array, adaptive quotas — is a
//! field of [`EngineConfig`], a single builder that is validated as a
//! whole before any resource exists:
//!
//! ```
//! use spatialdb::{EngineConfig, Routing, StripePolicy, Workspace};
//!
//! let ws = Workspace::from_config(
//!     EngineConfig::default()
//!         .buffer_pages(1024)
//!         .shards(8)
//!         .routing(Routing::ByRegion)
//!         .arms(4, StripePolicy::RoundRobin),
//! );
//! # let _ = ws;
//! ```

use spatialdb_disk::{DiskParams, Routing, StripePolicy};

/// Everything that shapes one simulated machine: disk timing, buffer
/// capacity, pool sharding, and the disk-arm array.
///
/// Build with the fluent setters, then hand to
/// [`Workspace::from_config`](crate::Workspace::from_config) (panics on
/// an invalid combination) or check explicitly with
/// [`validate`](EngineConfig::validate). The default is the paper's
/// deterministic single-shard, single-arm machine with a 512-page
/// buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Simulated disk timing parameters (§5.1 cost model).
    pub params: DiskParams,
    /// Buffer pool capacity in pages. Must be nonzero and at least the
    /// shard count (each shard keeps a one-page floor).
    pub buffer_pages: usize,
    /// Number of buffer-pool shards under the one capacity budget.
    /// One shard (the default) reproduces the paper's figures
    /// byte-for-byte.
    pub shards: usize,
    /// How pages are routed to shards ([`Routing::ByPage`] hashes the
    /// full page address; [`Routing::ByRegion`] keys whole regions so
    /// each database file gets its own lock domain).
    pub routing: Routing,
    /// Number of independent disk arms the simulated array declusters
    /// regions across. One arm (the default) is byte-identical to the
    /// plain single-arm disk.
    pub arms: usize,
    /// How regions map to arms when `arms > 1`.
    pub stripe: StripePolicy,
    /// Adaptive shard quotas: a full shard may borrow unused headroom
    /// from siblings, one page at a time, without a global lock. Off
    /// (the default) is byte-identical to the static quotas.
    pub adaptive_shards: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            params: DiskParams::default(),
            buffer_pages: 512,
            shards: 1,
            routing: Routing::ByPage,
            arms: 1,
            stripe: StripePolicy::RoundRobin,
            adaptive_shards: false,
        }
    }
}

impl EngineConfig {
    /// Set the simulated disk timing parameters.
    #[must_use]
    pub fn params(mut self, params: DiskParams) -> Self {
        self.params = params;
        self
    }

    /// Set the buffer pool capacity in pages.
    #[must_use]
    pub fn buffer_pages(mut self, pages: usize) -> Self {
        self.buffer_pages = pages;
        self
    }

    /// Split the buffer pool into `shards` lock domains.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the page → shard routing mode.
    #[must_use]
    pub fn routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }

    /// Decluster regions across `arms` disk arms under `stripe`. With
    /// multiple pool shards this also aligns shard *i* ↔ arm *i*
    /// (which requires [`Routing::ByRegion`]; see
    /// [`validate`](EngineConfig::validate)).
    #[must_use]
    pub fn arms(mut self, arms: usize, stripe: StripePolicy) -> Self {
        self.arms = arms;
        self.stripe = stripe;
        self
    }

    /// Enable adaptive shard quotas.
    #[must_use]
    pub fn adaptive_shards(mut self, on: bool) -> Self {
        self.adaptive_shards = on;
        self
    }

    /// Check the configuration as a whole. Every constructor funnels
    /// through this, so an invalid machine can never be half-built.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.buffer_pages == 0 {
            return Err(ConfigError::ZeroBufferPages);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.arms == 0 {
            return Err(ConfigError::ZeroArms);
        }
        if self.shards > self.buffer_pages {
            return Err(ConfigError::ShardsExceedBuffer {
                shards: self.shards,
                buffer_pages: self.buffer_pages,
            });
        }
        if self.arms > 1 && self.shards > 1 && self.routing != Routing::ByRegion {
            return Err(ConfigError::AffinityNeedsRegionRouting {
                arms: self.arms,
                shards: self.shards,
            });
        }
        Ok(())
    }
}

/// Why an [`EngineConfig`] was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `buffer_pages == 0`: the pool cannot hold a single page.
    ZeroBufferPages,
    /// `shards == 0`: the pool needs at least one lock domain.
    ZeroShards,
    /// `arms == 0`: the disk array needs at least one arm.
    ZeroArms,
    /// More shards than buffer pages: each shard keeps a one-page
    /// quota floor, so the capacity budget cannot cover them.
    ShardsExceedBuffer {
        /// Requested shard count.
        shards: usize,
        /// Requested pool capacity.
        buffer_pages: usize,
    },
    /// Multiple arms with multiple shards require
    /// [`Routing::ByRegion`]: per-arm shard affinity aligns shard *i* ↔
    /// arm *i* by region, which page-hash routing cannot honor.
    AffinityNeedsRegionRouting {
        /// Requested arm count.
        arms: usize,
        /// Requested shard count.
        shards: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroBufferPages => write!(f, "buffer_pages must be nonzero"),
            ConfigError::ZeroShards => write!(f, "shards must be nonzero"),
            ConfigError::ZeroArms => write!(f, "arms must be nonzero"),
            ConfigError::ShardsExceedBuffer {
                shards,
                buffer_pages,
            } => write!(
                f,
                "{shards} shards exceed the {buffer_pages}-page buffer \
                 (each shard keeps a one-page quota floor)"
            ),
            ConfigError::AffinityNeedsRegionRouting { arms, shards } => write!(
                f,
                "{arms} arms with {shards} shards require Routing::ByRegion \
                 (per-arm shard affinity is region-keyed)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(EngineConfig::default().validate(), Ok(()));
    }

    #[test]
    fn rejects_zero_knobs() {
        assert_eq!(
            EngineConfig::default().buffer_pages(0).validate(),
            Err(ConfigError::ZeroBufferPages)
        );
        assert_eq!(
            EngineConfig::default().shards(0).validate(),
            Err(ConfigError::ZeroShards)
        );
        assert_eq!(
            EngineConfig::default()
                .arms(0, StripePolicy::RoundRobin)
                .validate(),
            Err(ConfigError::ZeroArms)
        );
    }

    #[test]
    fn rejects_affinity_without_region_routing() {
        let conflicted = EngineConfig::default()
            .shards(4)
            .arms(2, StripePolicy::RoundRobin);
        assert!(matches!(
            conflicted.validate(),
            Err(ConfigError::AffinityNeedsRegionRouting { arms: 2, shards: 4 })
        ));
        assert_eq!(conflicted.routing(Routing::ByRegion).validate(), Ok(()));
        // Either dimension alone composes with any routing.
        assert_eq!(
            EngineConfig::default()
                .arms(2, StripePolicy::RoundRobin)
                .validate(),
            Ok(())
        );
        assert_eq!(EngineConfig::default().shards(4).validate(), Ok(()));
    }

    #[test]
    fn error_messages_name_the_conflict() {
        let err = EngineConfig::default()
            .buffer_pages(4)
            .shards(8)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("8 shards"));
    }
}
