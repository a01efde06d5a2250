//! Configuration validation.
//!
//! [`SystemConfig::validate`] checks every structural invariant the
//! simulator's components assert at construction time, returning a typed
//! [`ConfigError`] instead of panicking — the entry point for callers
//! that assemble configurations from user input.

use core::fmt;

use crate::{CacheConfig, SystemConfig};

/// A structural problem in a [`SystemConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A cache's size / associativity / line size do not divide evenly.
    CacheGeometry {
        /// Which cache ("L1D" or "UL2").
        cache: &'static str,
        /// The offending configuration.
        size_bytes: usize,
        /// Its associativity.
        associativity: usize,
        /// Its line size.
        line_size: usize,
    },
    /// A line size is not a power of two.
    LineSizeNotPowerOfTwo {
        /// Which cache.
        cache: &'static str,
        /// The offending line size.
        line_size: usize,
    },
    /// The L1 and L2 line sizes differ (fills copy whole lines between
    /// levels).
    MismatchedLineSizes {
        /// L1 line size.
        l1: usize,
        /// L2 line size.
        l2: usize,
    },
    /// TLB entries do not divide evenly into sets.
    TlbGeometry {
        /// Total entries.
        entries: usize,
        /// Associativity.
        associativity: usize,
    },
    /// A core width (fetch/issue/retire) or unit pool is zero.
    ZeroCoreResource {
        /// Which resource.
        what: &'static str,
    },
    /// A queue capacity is zero.
    ZeroQueue {
        /// Which queue.
        what: &'static str,
    },
    /// The stride prefetcher's table size is not a power of two.
    StrideEntriesNotPowerOfTwo {
        /// The offending entry count.
        entries: usize,
    },
    /// The adaptive controller is configured without a content prefetcher
    /// to steer.
    AdaptiveWithoutContent,
    /// A zoo engine's table geometry is degenerate (zero associativity,
    /// fanout, history, or perceptron rows).
    ZeroEngineResource {
        /// Which engine resource.
        what: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::CacheGeometry {
                cache,
                size_bytes,
                associativity,
                line_size,
            } => write!(
                f,
                "{cache} geometry does not divide evenly: {size_bytes} B / ({associativity} ways x {line_size} B lines)"
            ),
            ConfigError::LineSizeNotPowerOfTwo { cache, line_size } => {
                write!(f, "{cache} line size {line_size} is not a power of two")
            }
            ConfigError::MismatchedLineSizes { l1, l2 } => {
                write!(f, "L1 line size {l1} differs from L2 line size {l2}")
            }
            ConfigError::TlbGeometry {
                entries,
                associativity,
            } => write!(
                f,
                "TLB entries {entries} do not divide into {associativity}-way sets"
            ),
            ConfigError::ZeroCoreResource { what } => {
                write!(f, "core resource '{what}' must be nonzero")
            }
            ConfigError::ZeroQueue { what } => write!(f, "queue '{what}' must hold at least one entry"),
            ConfigError::StrideEntriesNotPowerOfTwo { entries } => {
                write!(f, "stride table entries {entries} must be a power of two")
            }
            ConfigError::AdaptiveWithoutContent => {
                write!(f, "adaptive controller configured without a content prefetcher")
            }
            ConfigError::ZeroEngineResource { what } => {
                write!(f, "engine resource '{what}' must be nonzero")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

fn check_cache(cache: &'static str, cfg: &CacheConfig) -> Result<(), ConfigError> {
    if !cfg.line_size.is_power_of_two() {
        return Err(ConfigError::LineSizeNotPowerOfTwo {
            cache,
            line_size: cfg.line_size,
        });
    }
    let way_bytes = cfg.associativity * cfg.line_size;
    if cfg.associativity == 0 || way_bytes == 0 || !cfg.size_bytes.is_multiple_of(way_bytes) || cfg.size_bytes == 0
    {
        return Err(ConfigError::CacheGeometry {
            cache,
            size_bytes: cfg.size_bytes,
            associativity: cfg.associativity,
            line_size: cfg.line_size,
        });
    }
    Ok(())
}

impl SystemConfig {
    /// Checks every structural invariant the simulator relies on.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found; a configuration that
    /// passes never panics inside the simulator's constructors.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_cache("L1D", &self.l1d)?;
        check_cache("UL2", &self.ul2)?;
        if self.l1d.line_size != self.ul2.line_size {
            return Err(ConfigError::MismatchedLineSizes {
                l1: self.l1d.line_size,
                l2: self.ul2.line_size,
            });
        }
        if self.dtlb.associativity == 0 || !self.dtlb.entries.is_multiple_of(self.dtlb.associativity) {
            return Err(ConfigError::TlbGeometry {
                entries: self.dtlb.entries,
                associativity: self.dtlb.associativity,
            });
        }
        for (what, v) in [
            ("fetch_width", self.core.fetch_width),
            ("issue_width", self.core.issue_width),
            ("retire_width", self.core.retire_width),
            ("rob_size", self.core.rob_size),
            ("load_buffer", self.core.load_buffer),
            ("store_buffer", self.core.store_buffer),
            ("int_units", self.core.int_units),
            ("mem_units", self.core.mem_units),
            ("fp_units", self.core.fp_units),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroCoreResource { what });
            }
        }
        if self.bus.queue_size == 0 {
            return Err(ConfigError::ZeroQueue { what: "bus" });
        }
        if self.arbiters.l2_queue_size == 0 {
            return Err(ConfigError::ZeroQueue { what: "L2" });
        }
        if let Some(stride) = &self.prefetchers.stride {
            if !stride.entries.is_power_of_two() {
                return Err(ConfigError::StrideEntriesNotPowerOfTwo {
                    entries: stride.entries,
                });
            }
        }
        if self.prefetchers.adaptive.is_some() && self.prefetchers.content.is_none() {
            return Err(ConfigError::AdaptiveWithoutContent);
        }
        if let Some(delta) = &self.prefetchers.delta {
            for (what, v) in [
                ("delta associativity", delta.associativity),
                ("delta fanout", delta.fanout),
                ("delta history", delta.history),
            ] {
                if v == 0 {
                    return Err(ConfigError::ZeroEngineResource { what });
                }
            }
        }
        if let Some(jump) = &self.prefetchers.jump {
            if jump.associativity == 0 {
                return Err(ConfigError::ZeroEngineResource {
                    what: "jump associativity",
                });
            }
        }
        if let Some(p) = &self.prefetchers.perceptron {
            if p.entries_per_feature == 0 {
                return Err(ConfigError::ZeroEngineResource {
                    what: "perceptron entries_per_feature",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveConfig, StrideConfig};

    #[test]
    fn shipped_configurations_validate() {
        SystemConfig::asplos2002().validate().expect("baseline");
        SystemConfig::with_content().validate().expect("content");
        SystemConfig::with_markov(crate::MarkovConfig::eighth(), 896 * 1024, 7)
            .validate()
            .expect("markov 1/8");
    }

    #[test]
    fn bad_cache_geometry_is_caught() {
        let mut cfg = SystemConfig::asplos2002();
        cfg.ul2.size_bytes = 1000; // not divisible by 8 x 64
        let e = cfg.validate().unwrap_err();
        assert!(matches!(e, ConfigError::CacheGeometry { cache: "UL2", .. }));
        assert!(e.to_string().contains("UL2"));
    }

    #[test]
    fn non_power_of_two_line_size() {
        let mut cfg = SystemConfig::asplos2002();
        cfg.l1d.line_size = 48;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::LineSizeNotPowerOfTwo { cache: "L1D", .. })
        ));
    }

    #[test]
    fn mismatched_line_sizes() {
        let mut cfg = SystemConfig::asplos2002();
        cfg.ul2.line_size = 128;
        cfg.ul2.size_bytes = 1024 * 1024;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::MismatchedLineSizes { l1: 64, l2: 128 })
        ));
    }

    #[test]
    fn tlb_geometry() {
        let mut cfg = SystemConfig::asplos2002();
        cfg.dtlb.entries = 65;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TlbGeometry { entries: 65, .. })
        ));
    }

    #[test]
    fn zero_width() {
        let mut cfg = SystemConfig::asplos2002();
        cfg.core.issue_width = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroCoreResource {
                what: "issue_width"
            })
        ));
    }

    #[test]
    fn zero_fp_units() {
        // With no FP unit the first FP uop of Quake or ProE never issues.
        let mut cfg = SystemConfig::asplos2002();
        cfg.core.fp_units = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroCoreResource { what: "fp_units" })
        ));
    }

    #[test]
    fn stride_entries_power_of_two() {
        let mut cfg = SystemConfig::asplos2002();
        cfg.prefetchers.stride = Some(StrideConfig {
            entries: 100,
            degree: 2,
        });
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::StrideEntriesNotPowerOfTwo { entries: 100 })
        ));
    }

    #[test]
    fn adaptive_requires_content() {
        let mut cfg = SystemConfig::asplos2002();
        cfg.prefetchers.adaptive = Some(AdaptiveConfig::default());
        assert_eq!(cfg.validate(), Err(ConfigError::AdaptiveWithoutContent));
        cfg.prefetchers.content = Some(crate::ContentConfig::tuned());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zoo_engine_geometry_is_checked() {
        let mut cfg = SystemConfig::with_delta(crate::DeltaConfig::pangloss(64 * 1024));
        assert!(cfg.validate().is_ok());
        cfg.prefetchers.delta.as_mut().unwrap().fanout = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroEngineResource {
                what: "delta fanout"
            })
        ));
        let mut cfg = SystemConfig::with_jump(crate::JumpConfig::sized(64 * 1024));
        assert!(cfg.validate().is_ok());
        cfg.prefetchers.jump.as_mut().unwrap().associativity = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::with_content().gated(crate::PerceptronConfig::default());
        assert!(cfg.validate().is_ok());
        cfg.prefetchers.perceptron.as_mut().unwrap().entries_per_feature = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = ConfigError::ZeroQueue { what: "bus" };
        let msg = e.to_string();
        assert!(msg.starts_with("queue"));
        assert!(!msg.ends_with('.'));
    }
}
