//! Export of the catalog as a *servable* method table.
//!
//! The wire validation harness (`rpclens-wire`) stands up a real UDP
//! server for the fleet's methods. It needs, per method, exactly what a
//! server and a load generator need — identity, payload size models, and
//! message class — without dragging in the call-graph, hedging, or
//! deployment machinery. This module flattens a [`Catalog`] into that
//! table, plus a root-weight sampler that reproduces the workload
//! generator's root-RPC mix (same weights as `workload`'s root picker).

use crate::catalog::Catalog;
use rpclens_rpcstack::cost::MessageClass;
use rpclens_simcore::alias::AliasTable;
use rpclens_simcore::dist::LogNormal;
use rpclens_simcore::rng::Prng;
use rpclens_trace::span::{MethodId, ServiceId};

/// One servable method: everything a wire server or load generator needs.
#[derive(Debug, Clone)]
pub struct ServableMethod {
    /// Catalog method id (the wire's `method_id`).
    pub method: MethodId,
    /// Owning service.
    pub service: ServiceId,
    /// Qualified `service/method` name.
    pub name: String,
    /// How the stack treats this method's payloads.
    pub class: MessageClass,
    /// Request payload size model (bytes).
    pub req_size: LogNormal,
    /// Response payload size model (bytes).
    pub resp_size: LogNormal,
    /// Weight in the root-RPC mix (0 for non-root methods).
    pub root_weight: f64,
    /// Paper Table 1 category when this method is one of the pinned
    /// archetype rows.
    pub table1_category: Option<&'static str>,
}

/// The catalog flattened for serving, with a weighted root sampler.
#[derive(Debug, Clone)]
pub struct ServableTable {
    methods: Vec<ServableMethod>,
    /// Indices (into `methods`) of root methods, matching `root_alias`.
    roots: Vec<u32>,
    root_alias: AliasTable,
}

impl ServableTable {
    /// Flattens a catalog. Methods come out in catalog (id) order, so the
    /// table is deterministic for a given catalog seed.
    pub fn from_catalog(catalog: &Catalog) -> ServableTable {
        let mut methods = Vec::with_capacity(catalog.num_methods());
        for spec in catalog.methods() {
            let service = catalog.service(spec.service);
            let table1_category = catalog
                .table1()
                .iter()
                .find(|row| row.method == spec.id)
                .map(|row| row.category);
            methods.push(ServableMethod {
                method: spec.id,
                service: spec.service,
                name: format!("{}/{}", service.name, spec.name),
                class: service.class,
                req_size: spec.req_size,
                resp_size: spec.resp_size,
                root_weight: spec.root_weight,
                table1_category,
            });
        }
        let roots: Vec<u32> = methods
            .iter()
            .enumerate()
            .filter(|(_, m)| m.root_weight > 0.0)
            .map(|(i, _)| i as u32)
            .collect();
        let weights: Vec<f64> = roots
            .iter()
            .map(|&i| methods[i as usize].root_weight)
            .collect();
        let root_alias =
            AliasTable::new(&weights).expect("catalog always produces at least one root method");
        ServableTable {
            methods,
            roots,
            root_alias,
        }
    }

    /// All servable methods, in catalog order.
    pub fn methods(&self) -> &[ServableMethod] {
        &self.methods
    }

    /// Looks up a method by wire id.
    pub fn get(&self, method: MethodId) -> Option<&ServableMethod> {
        // Catalog ids are dense and in order; fall back to a scan if a
        // future catalog breaks that.
        let guess = method.0 as usize;
        match self.methods.get(guess) {
            Some(m) if m.method == method => Some(m),
            _ => self.methods.iter().find(|m| m.method == method),
        }
    }

    /// Looks up a method by the wire's `method_id` (a [`MethodId`]
    /// widened to `u64`).
    pub fn by_wire_id(&self, wire_id: u64) -> Option<&ServableMethod> {
        u32::try_from(wire_id)
            .ok()
            .and_then(|id| self.get(MethodId(id)))
    }

    /// Samples a root method with the workload generator's root-RPC mix.
    pub fn sample_root(&self, rng: &mut Prng) -> &ServableMethod {
        let idx = self.roots[self.root_alias.sample(rng)];
        &self.methods[idx as usize]
    }

    /// Number of servable methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// Whether the table is empty (it never is for a generated catalog).
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use rpclens_netsim::topology::Topology;
    use std::collections::HashMap;

    fn table(seed: u64) -> ServableTable {
        let topology = Topology::default_world(seed);
        let catalog = Catalog::generate(
            &CatalogConfig {
                total_methods: 400,
                seed,
            },
            &topology,
        );
        ServableTable::from_catalog(&catalog)
    }

    #[test]
    fn table_covers_the_whole_catalog() {
        let t = table(7);
        assert_eq!(t.len(), 400);
        assert!(!t.roots.is_empty());
        assert!(t.roots.len() < t.len(), "not every method is a root");
        // Ids are unique and resolvable.
        for m in t.methods() {
            assert_eq!(t.get(m.method).unwrap().name, m.name);
        }
        assert!(t.get(MethodId(1_000_000)).is_none());
    }

    #[test]
    fn table1_rows_are_pinned() {
        let t = table(7);
        let pinned: Vec<_> = t
            .methods()
            .iter()
            .filter(|m| m.table1_category.is_some())
            .collect();
        assert_eq!(pinned.len(), 8, "all eight Table 1 archetypes present");
    }

    #[test]
    fn root_sampling_follows_weights() {
        let t = table(3);
        let mut rng = Prng::seed_from(5);
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for _ in 0..20_000 {
            let m = t.sample_root(&mut rng);
            *counts.entry(m.method.0).or_insert(0) += 1;
            assert!(m.root_weight > 0.0, "sampler only returns roots");
        }
        // The tier-1 hot methods carry 6x weight; the busiest sampled
        // method must out-draw the mean by a wide margin.
        let max = counts.values().copied().max().unwrap();
        let mean = 20_000 / t.roots.len() as u32;
        assert!(max > mean * 3, "max {max}, mean {mean}");
    }

    #[test]
    fn table_is_deterministic_per_seed() {
        let a = table(11);
        let b = table(11);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.methods().iter().zip(b.methods()) {
            assert_eq!(x.method, y.method);
            assert_eq!(x.name, y.name);
            assert_eq!(x.root_weight, y.root_weight);
            assert_eq!(x.req_size.median(), y.req_size.median());
        }
    }
}
