//! One validated configuration for a [`Workspace`](crate::Workspace).
//!
//! Every knob of the simulated machine — buffer capacity and pool
//! sharding — is a field of [`EngineConfig`], a single builder that is
//! validated as a whole before any resource exists:
//!
//! ```
//! use spatialdb::{EngineConfig, Workspace};
//!
//! let ws = Workspace::from_config(EngineConfig::default().buffer_pages(1024).shards(8));
//! # let _ = ws;
//! ```
//!
//! The disk always times requests with §5.1's parameters
//! ([`DiskParams::default`](spatialdb_disk::DiskParams::default): 9 ms
//! seek, 6 ms latency, 1 ms transfer per page). How many disk arms a
//! replay of the charged requests runs on is not a property of the
//! machine the queries charge: it belongs to the replay
//! ([`ArrayConfig`](spatialdb_disk::ArrayConfig)).

/// Everything that shapes one simulated machine: buffer capacity and
/// pool sharding.
///
/// Build with the fluent setters, then hand to
/// [`Workspace::from_config`](crate::Workspace::from_config) (panics on
/// an invalid combination) or check explicitly with
/// [`validate`](EngineConfig::validate). The default is the paper's
/// deterministic single-shard machine with a 512-page buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Buffer pool capacity in pages. Must be nonzero and at least the
    /// shard count (each shard keeps a one-page floor).
    pub buffer_pages: usize,
    /// Number of buffer-pool shards under the one capacity budget, each
    /// an LRU of its fixed share, pages assigned by address hash. One
    /// shard (the default) reproduces the paper's figures byte-for-byte
    /// and takes the pool lock once per query. More shards pay off only
    /// for two or more concurrent readers on a pool that holds their
    /// working set (8 shards: ×1.4 – 1.6 queries/s with 2 threads on 2
    /// vCPUs); everywhere else one shard ties or wins. Scaling beyond 2
    /// cores is unmeasured.
    pub shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            buffer_pages: 512,
            shards: 1,
        }
    }
}

impl EngineConfig {
    /// Set the buffer pool capacity in pages.
    #[must_use]
    pub fn buffer_pages(mut self, pages: usize) -> Self {
        self.buffer_pages = pages;
        self
    }

    /// Split the buffer pool into `shards` lock domains (see
    /// [`shards`](EngineConfig::shards) for when that pays off).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
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
        if self.shards > self.buffer_pages {
            return Err(ConfigError::ShardsExceedBuffer {
                shards: self.shards,
                buffer_pages: self.buffer_pages,
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
    /// More shards than buffer pages: each shard keeps a one-page
    /// quota floor, so the capacity budget cannot cover them.
    ShardsExceedBuffer {
        /// Requested shard count.
        shards: usize,
        /// Requested pool capacity.
        buffer_pages: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroBufferPages => write!(f, "buffer_pages must be nonzero"),
            ConfigError::ZeroShards => write!(f, "shards must be nonzero"),
            ConfigError::ShardsExceedBuffer {
                shards,
                buffer_pages,
            } => write!(
                f,
                "{shards} shards exceed the {buffer_pages}-page buffer \
                 (each shard keeps a one-page quota floor)"
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
