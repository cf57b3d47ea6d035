//! Deterministic collection aliases.
//!
//! Protocol and simulation state must iterate in a reproducible order —
//! `std::collections::HashMap`'s iteration order varies per process
//! (`RandomState`), which silently poisons trace hashes and any result
//! derived from iteration order (overlay convergence, continuity
//! indices). Clippy's `disallowed_types` rejects `HashMap`/`HashSet` in
//! non-test code (`clippy.toml`, DESIGN.md §7); this alias is the
//! sanctioned map and doubles as documentation of intent at the use site
//! (sets are a plain `BTreeSet`).
//!
//! `BTreeMap` lookups are `O(log n)` instead of `O(1)`; every map in the
//! hot path is keyed by small dense ids, where the tree's cache-friendly
//! nodes keep the difference negligible at current scales. If a profile
//! ever shows otherwise, the fix is an order-preserving indexed map —
//! not a hash map.

use std::collections::BTreeMap;

/// Deterministically-ordered map (alias of [`BTreeMap`]).
pub type DetMap<K, V> = BTreeMap<K, V>;
