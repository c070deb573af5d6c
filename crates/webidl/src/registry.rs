//! The feature registry: every instrumentable feature, with stable ids.
//!
//! Built by parsing the generated WebIDL corpus exactly the way the paper's
//! tooling parsed Firefox's: each operation becomes a *method* feature
//! (`Interface.prototype.name`), each writable attribute becomes a *property*
//! feature. Readonly attributes and constants are excluded — the paper's
//! extension could only observe method calls and property *writes*.
//!
//! Within a standard, features are ordered by popularity rank: rank 0 is the
//! standard's flagship (most popular) feature, matching the paper's
//! observation that a standard's popularity equals its most popular
//! feature's popularity.

use crate::ast::Member;
use crate::catalog::{StandardId, StandardInfo, CATALOG};
use crate::corpus;
use crate::parser;
use bfu_util::{define_id, Fnv64};
use std::collections::HashMap;

define_id!(
    /// Index of a feature in the [`FeatureRegistry`].
    FeatureId,
    "feat"
);

/// Whether a feature is a callable method or a writable property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Counted when called (prototype-patched by the instrumentation).
    Method,
    /// Counted when written (observed via `Object.watch` on singletons, or
    /// via patched setters on prototypes).
    Property,
}

/// Full description of one feature.
#[derive(Debug, Clone)]
pub struct FeatureInfo {
    /// Canonical display name, e.g. `Document.prototype.createElement`.
    pub name: String,
    /// Owning interface, e.g. `Document`.
    pub interface: String,
    /// Member name, e.g. `createElement`.
    pub member: String,
    /// Method or property.
    pub kind: FeatureKind,
    /// The standard this feature belongs to.
    pub standard: StandardId,
    /// Popularity rank within the standard (0 = flagship).
    pub rank_in_standard: u32,
}

/// The complete feature universe: 1,392 features across 75 standards.
#[derive(Debug, Clone)]
pub struct FeatureRegistry {
    features: Vec<FeatureInfo>,
    by_name: HashMap<String, FeatureId>,
    by_standard: Vec<Vec<FeatureId>>,
    digest: u64,
}

impl FeatureRegistry {
    /// Build the registry by generating and parsing the WebIDL corpus.
    ///
    /// Deterministic: feature ids are stable across runs.
    pub fn build() -> Self {
        let corpus = corpus::generate();
        let mut features = Vec::new();
        let mut by_name = HashMap::new();
        let mut by_standard: Vec<Vec<FeatureId>> = vec![Vec::new(); CATALOG.len()];

        for (std_ix, file) in corpus.iter().enumerate() {
            let std_id = StandardId::from_usize(std_ix);
            let idl = parser::parse(&file.source)
                .unwrap_or_else(|e| panic!("corpus file {} failed to parse: {e}", file.file_name));
            let mut rank = 0u32;
            for iface in &idl.interfaces {
                for member in &iface.members {
                    let (member_name, kind) = match member {
                        Member::Operation(op) => (op.name.clone(), FeatureKind::Method),
                        Member::Attribute(a) if !a.readonly => {
                            (a.name.clone(), FeatureKind::Property)
                        }
                        _ => continue,
                    };
                    let id = FeatureId::from_usize(features.len());
                    let name = format!("{}.prototype.{}", iface.name, member_name);
                    by_name.insert(name.clone(), id);
                    by_standard[std_ix].push(id);
                    features.push(FeatureInfo {
                        name,
                        interface: iface.name.clone(),
                        member: member_name,
                        kind,
                        standard: std_id,
                        rank_in_standard: rank,
                    });
                    rank += 1;
                }
            }
        }

        FeatureRegistry {
            digest: content_digest(&features),
            features,
            by_name,
            by_standard,
        }
    }

    /// Content digest of every feature (name, interface, member, kind,
    /// standard, rank), computed once at build. Equal registries — a clone,
    /// or a second build — share it, so it keys state derived from the
    /// registry's content without comparing addresses.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Total number of features (the paper's 1,392).
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// Total number of standards (the paper's 75).
    pub fn standard_count(&self) -> usize {
        CATALOG.len()
    }

    /// All features, indexable by [`FeatureId::index`].
    pub fn features(&self) -> &[FeatureInfo] {
        &self.features
    }

    /// Info for one feature.
    pub fn feature(&self, id: FeatureId) -> &FeatureInfo {
        &self.features[id.index()]
    }

    /// Catalog metadata for one standard.
    pub fn standard(&self, id: StandardId) -> &'static StandardInfo {
        &CATALOG[id.index()]
    }

    /// All standard ids.
    pub fn standard_ids(&self) -> impl Iterator<Item = StandardId> {
        (0..CATALOG.len()).map(StandardId::from_usize)
    }

    /// Feature ids belonging to a standard, flagship first.
    pub fn features_of(&self, std: StandardId) -> &[FeatureId] {
        &self.by_standard[std.index()]
    }

    /// Look up a feature by canonical name (`Iface.prototype.member`).
    pub fn by_name(&self, name: &str) -> Option<FeatureId> {
        self.by_name.get(name).copied()
    }

    /// Look up a feature by `(interface, member)` pair.
    pub fn by_interface_member(&self, interface: &str, member: &str) -> Option<FeatureId> {
        self.by_name(&format!("{interface}.prototype.{member}"))
    }

    /// The standard a feature belongs to.
    pub fn standard_of(&self, feature: FeatureId) -> StandardId {
        self.features[feature.index()].standard
    }
}

/// FNV-64 over every field of every feature, in id order.
fn content_digest(features: &[FeatureInfo]) -> u64 {
    let mut h = Fnv64::new();
    for f in features {
        h.write_str(&f.name);
        h.write_str(&f.interface);
        h.write_str(&f.member);
        h.write_u64(u64::from(f.kind == FeatureKind::Method));
        h.write_u64(f.standard.raw().into());
        h.write_u64(f.rank_in_standard.into());
    }
    h.finish()
}

impl Default for FeatureRegistry {
    fn default() -> Self {
        Self::build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn registry_has_1392_features_and_75_standards() {
        let reg = FeatureRegistry::build();
        assert_eq!(reg.feature_count(), 1392);
        assert_eq!(reg.standard_count(), 75);
    }

    #[test]
    fn digest_follows_content_not_address() {
        let reg = FeatureRegistry::build();
        assert_eq!(reg.digest(), FeatureRegistry::build().digest());
        assert_eq!(reg.digest(), reg.clone().digest());
        let mut features = reg.features.clone();
        features[0].member.push('x');
        assert_ne!(reg.digest(), content_digest(&features));
    }

    #[test]
    fn per_standard_counts_match_catalog() {
        let reg = FeatureRegistry::build();
        for std_id in reg.standard_ids() {
            let info = reg.standard(std_id);
            assert_eq!(
                reg.features_of(std_id).len() as u32,
                info.features,
                "{}",
                info.abbrev
            );
        }
    }

    #[test]
    fn flagship_is_rank_zero() {
        let reg = FeatureRegistry::build();
        let (dom1, _) = catalog::by_abbrev("DOM1").unwrap();
        let first = reg.features_of(dom1)[0];
        assert_eq!(reg.feature(first).name, "Document.prototype.createElement");
        assert_eq!(reg.feature(first).rank_in_standard, 0);
    }

    #[test]
    fn lookup_by_name_roundtrips() {
        let reg = FeatureRegistry::build();
        for id in (0..reg.feature_count()).map(FeatureId::from_usize) {
            let info = reg.feature(id);
            assert_eq!(reg.by_name(&info.name), Some(id));
            assert_eq!(
                reg.by_interface_member(&info.interface, &info.member),
                Some(id)
            );
        }
    }

    #[test]
    fn known_flagships_resolvable() {
        let reg = FeatureRegistry::build();
        for name in [
            "Document.prototype.createElement",
            "XMLHttpRequest.prototype.open",
            "Navigator.prototype.vibrate",
            "Navigator.prototype.sendBeacon",
            "Document.prototype.querySelectorAll",
            "Window.prototype.requestAnimationFrame",
            "SVGTextContentElement.prototype.getComputedTextLength",
            "PluginArray.prototype.refresh",
        ] {
            assert!(reg.by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn ranks_are_contiguous_within_standard() {
        let reg = FeatureRegistry::build();
        for std_id in reg.standard_ids() {
            for (i, &fid) in reg.features_of(std_id).iter().enumerate() {
                assert_eq!(reg.feature(fid).rank_in_standard as usize, i);
                assert_eq!(reg.standard_of(fid), std_id);
            }
        }
    }

    #[test]
    fn both_kinds_present() {
        let reg = FeatureRegistry::build();
        let methods = reg
            .features()
            .iter()
            .filter(|f| f.kind == FeatureKind::Method)
            .count();
        let props = reg.feature_count() - methods;
        assert!(methods > 500, "methods = {methods}");
        assert!(props > 200, "properties = {props}");
    }
}
