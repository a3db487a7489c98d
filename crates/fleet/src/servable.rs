//! Export of the catalog as a *servable* method table.
//!
//! The wire validation harness (`rpclens-wire`) stands up a real UDP
//! server for the fleet's methods. It needs, per method, exactly what a
//! server and a load generator need — identity, payload size models, and
//! message class — without dragging in the call-graph, hedging, or
//! deployment machinery. This module flattens a [`Catalog`] into that
//! table and draws root calls from the workload generator's own
//! [`RootMix`].

use crate::catalog::Catalog;
use crate::workload::RootMix;
use rpclens_rpcstack::cost::MessageClass;
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
    /// How the stack treats this method's payloads.
    pub class: MessageClass,
    /// Request payload size model (bytes).
    pub req_size: LogNormal,
    /// Response payload size model (bytes).
    pub resp_size: LogNormal,
}

/// The catalog flattened for serving, with the fleet's root mix.
#[derive(Debug, Clone)]
pub struct ServableTable {
    /// Indexed by method id: catalog ids are dense and in order.
    methods: Vec<ServableMethod>,
    roots: RootMix,
}

impl ServableTable {
    /// Flattens a catalog. Methods come out in catalog (id) order, so the
    /// table is deterministic for a given catalog seed.
    pub fn from_catalog(catalog: &Catalog) -> ServableTable {
        let methods = catalog
            .methods()
            .iter()
            .map(|spec| ServableMethod {
                method: spec.id,
                service: spec.service,
                class: catalog.service(spec.service).class,
                req_size: spec.req_size,
                resp_size: spec.resp_size,
            })
            .collect();
        ServableTable {
            methods,
            roots: RootMix::new(catalog),
        }
    }

    /// All servable methods, in catalog order.
    pub fn methods(&self) -> &[ServableMethod] {
        &self.methods
    }

    /// Looks up a method by wire id.
    pub fn get(&self, method: MethodId) -> Option<&ServableMethod> {
        self.methods
            .get(method.0 as usize)
            .filter(|m| m.method == method)
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
        let method = self.roots.methods()[self.roots.sample(rng)];
        &self.methods[method.0 as usize]
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
        let roots = t.roots.methods().len();
        assert!(roots > 0);
        assert!(roots < t.len(), "not every method is a root");
        // Ids are unique and resolvable.
        for m in t.methods() {
            assert_eq!(t.get(m.method).unwrap().method, m.method);
        }
        assert!(t.get(MethodId(1_000_000)).is_none());
    }

    #[test]
    fn unknown_wire_ids_resolve_to_none() {
        let t = table(7);
        let last = t.len() as u64 - 1;
        assert_eq!(t.by_wire_id(last).unwrap().method, MethodId(last as u32));
        // Just past the table, far past it, and ids a MethodId cannot hold.
        for id in [
            last + 1,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            u64::MAX,
        ] {
            assert!(t.by_wire_id(id).is_none(), "wire id {id}");
        }
    }

    #[test]
    fn root_sampling_follows_weights() {
        let t = table(3);
        let mut rng = Prng::seed_from(5);
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for _ in 0..20_000 {
            let m = t.sample_root(&mut rng);
            *counts.entry(m.method.0).or_insert(0) += 1;
            assert!(
                t.roots.methods().contains(&m.method),
                "sampler only returns roots"
            );
        }
        // The tier-1 hot methods carry 6x weight; the busiest sampled
        // method must out-draw the mean by a wide margin.
        let max = counts.values().copied().max().unwrap();
        let mean = 20_000 / t.roots.methods().len() as u32;
        assert!(max > mean * 3, "max {max}, mean {mean}");
    }

    #[test]
    fn table_is_deterministic_per_seed() {
        let a = table(11);
        let b = table(11);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.roots.methods(), b.roots.methods());
        for (x, y) in a.methods().iter().zip(b.methods()) {
            assert_eq!(x.method, y.method);
            assert_eq!(x.service, y.service);
            assert_eq!(x.req_size.median(), y.req_size.median());
        }
    }
}
