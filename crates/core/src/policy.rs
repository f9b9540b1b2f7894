//! Tuning knobs shared by the data model and the evaluation engine.
//!
//! The seed implementation hard-coded a silent cutoff: past 48 tuples,
//! [`crate::GenRelation::insert`] stopped running subsumption compression
//! altogether. That constant is gone; compression behaviour is now an
//! explicit, documented [`EnginePolicy`] carried by every relation (and by
//! the engine context that creates relations during evaluation).

/// How [`crate::GenRelation::insert`] compresses the DNF representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubsumptionMode {
    /// Only exact canonical duplicates are dropped. O(1) per insert; the
    /// representation may keep tuples entailed by other tuples.
    DedupOnly,
    /// The indexed store: tuples are bucketed by
    /// [`crate::Theory::signature`], candidate buckets are pruned by a
    /// bitmask-subset test, and candidates inside a bucket are pruned by
    /// cached sample points before any [`crate::Theory::entails`] call.
    /// Same final relation as scanning every stored tuple in both
    /// directions (the filters are sound, never merely heuristic), with
    /// far fewer entailment checks.
    Indexed,
}

/// Policy block consulted by [`crate::GenRelation`] and the evaluation
/// engine. Construct with [`EnginePolicy::default`] or
/// [`EnginePolicy::with_subsumption`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnginePolicy {
    /// Subsumption compression mode (default [`SubsumptionMode::Indexed`]).
    pub subsumption: SubsumptionMode,
}

impl Default for EnginePolicy {
    fn default() -> EnginePolicy {
        EnginePolicy { subsumption: SubsumptionMode::Indexed }
    }
}

impl EnginePolicy {
    /// Policy with the given subsumption mode.
    #[must_use]
    pub fn with_subsumption(subsumption: SubsumptionMode) -> EnginePolicy {
        EnginePolicy { subsumption }
    }
}
