//! Fleet topology: regions, datacenters, and clusters.
//!
//! The unit of placement in the study is the *cluster* (a set of co-located
//! machines sharing a fabric); clusters live in datacenters, datacenters in
//! geographic regions. [`PathClass`] captures the distance classes used by
//! Fig. 19 (same datacenter / different datacenter in the same country /
//! different continents).

use crate::geo::GeoPoint;
use rpclens_simcore::rng::Prng;
use serde::{Deserialize, Serialize};

/// Identifier of a geographic region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u16);

/// Identifier of a datacenter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DatacenterId(pub u16);

/// Identifier of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClusterId(pub u16);

/// Continent a region belongs to (used for [`PathClass`] classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Continent {
    /// North America.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Europe.
    Europe,
    /// Asia.
    Asia,
    /// Oceania.
    Oceania,
}

/// The distance class of a network path between two clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PathClass {
    /// Client and server in the same cluster.
    SameCluster,
    /// Different clusters in the same datacenter.
    SameDatacenter,
    /// Different datacenters in the same region (the paper's "same
    /// country" bucket).
    SameRegion,
    /// Different regions on the same continent.
    SameContinent,
    /// Different continents.
    InterContinent,
}

impl PathClass {
    /// Human-readable label matching the groups in Fig. 19.
    pub fn label(self) -> &'static str {
        match self {
            PathClass::SameCluster => "same cluster",
            PathClass::SameDatacenter => "same datacenter",
            PathClass::SameRegion => "different DC, same country",
            PathClass::SameContinent => "same continent",
            PathClass::InterContinent => "different continents",
        }
    }

    /// Whether the path leaves the datacenter and rides the WAN.
    ///
    /// WAN paths are the ones exposed to partition and brownout episodes
    /// in the fault-injection plane; intra-datacenter fabric failures are
    /// modelled as machine/task churn instead.
    pub fn is_wan(self) -> bool {
        !matches!(self, PathClass::SameCluster | PathClass::SameDatacenter)
    }
}

/// A geographic region hosting one or more datacenters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Region {
    /// This region's identifier.
    pub id: RegionId,
    /// Short name, e.g. `us-central`.
    pub name: String,
    /// Continent the region is on.
    pub continent: Continent,
    /// Geographic center of the region.
    pub location: GeoPoint,
}

/// A datacenter within a region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Datacenter {
    /// This datacenter's identifier.
    pub id: DatacenterId,
    /// Region that hosts this datacenter.
    pub region: RegionId,
    /// Precise location (region center plus local offset).
    pub location: GeoPoint,
}

/// A cluster of machines within a datacenter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cluster {
    /// This cluster's identifier.
    pub id: ClusterId,
    /// Datacenter that hosts this cluster.
    pub datacenter: DatacenterId,
    /// Region that hosts this cluster (denormalised for fast lookups).
    pub region: RegionId,
    /// Continent (denormalised).
    pub continent: Continent,
    /// Location (shared with the datacenter).
    pub location: GeoPoint,
}

/// A specification for building one region of the synthetic world.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Region name.
    pub name: &'static str,
    /// Continent.
    pub continent: Continent,
    /// Region center.
    pub location: GeoPoint,
    /// Number of datacenters to place in the region.
    pub datacenters: usize,
    /// Number of clusters per datacenter.
    pub clusters_per_dc: usize,
}

/// The full fleet topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    regions: Vec<Region>,
    datacenters: Vec<Datacenter>,
    clusters: Vec<Cluster>,
}

impl Topology {
    /// Builds a topology from region specifications.
    ///
    /// Datacenters are scattered deterministically (seeded by `seed`)
    /// within ~300 km of the region center, mimicking metro-area siting.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or any spec asks for zero datacenters or
    /// clusters.
    pub fn build(specs: &[RegionSpec], seed: u64) -> Self {
        assert!(!specs.is_empty(), "topology needs at least one region");
        let mut rng = Prng::seed_from(seed).stream(0x7090);
        let mut regions = Vec::new();
        let mut datacenters = Vec::new();
        let mut clusters = Vec::new();
        for (ri, spec) in specs.iter().enumerate() {
            assert!(
                spec.datacenters > 0 && spec.clusters_per_dc > 0,
                "region {} must have datacenters and clusters",
                spec.name
            );
            let region_id = RegionId(ri as u16);
            regions.push(Region {
                id: region_id,
                name: spec.name.to_string(),
                continent: spec.continent,
                location: spec.location,
            });
            for _ in 0..spec.datacenters {
                let dc_id = DatacenterId(datacenters.len() as u16);
                // Roughly +/-2.5 degrees of scatter (~280 km).
                let dlat = (rng.next_f64() - 0.5) * 5.0;
                let dlon = (rng.next_f64() - 0.5) * 5.0;
                let loc = GeoPoint::new(
                    (spec.location.lat + dlat).clamp(-89.0, 89.0),
                    spec.location.lon + dlon,
                );
                datacenters.push(Datacenter {
                    id: dc_id,
                    region: region_id,
                    location: loc,
                });
                for _ in 0..spec.clusters_per_dc {
                    let cluster_id = ClusterId(clusters.len() as u16);
                    clusters.push(Cluster {
                        id: cluster_id,
                        datacenter: dc_id,
                        region: region_id,
                        continent: spec.continent,
                        location: loc,
                    });
                }
            }
        }
        Topology {
            regions,
            datacenters,
            clusters,
        }
    }

    /// Builds the default synthetic world: six regions on four continents,
    /// 48 clusters total — enough spread to exercise every [`PathClass`]
    /// with WAN RTTs up to the ~200 ms the paper reports.
    pub fn default_world(seed: u64) -> Self {
        Self::build(&default_region_specs(), seed)
    }

    /// All cluster ids, in id order.
    pub fn cluster_ids(&self) -> Vec<ClusterId> {
        self.clusters.iter().map(|c| c.id).collect()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Looks up a cluster.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.0 as usize]
    }

    /// Looks up a datacenter.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn datacenter(&self, id: DatacenterId) -> &Datacenter {
        &self.datacenters[id.0 as usize]
    }

    /// Looks up a region.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Iterates over all clusters.
    pub fn clusters(&self) -> impl Iterator<Item = &Cluster> {
        self.clusters.iter()
    }

    /// Classifies the path between two clusters.
    pub fn path_class(&self, a: ClusterId, b: ClusterId) -> PathClass {
        if a == b {
            return PathClass::SameCluster;
        }
        let ca = self.cluster(a);
        let cb = self.cluster(b);
        if ca.datacenter == cb.datacenter {
            PathClass::SameDatacenter
        } else if ca.region == cb.region {
            PathClass::SameRegion
        } else if ca.continent == cb.continent {
            PathClass::SameContinent
        } else {
            PathClass::InterContinent
        }
    }

    /// Great-circle distance between two clusters' datacenters, km.
    pub fn distance_km(&self, a: ClusterId, b: ClusterId) -> f64 {
        self.cluster(a)
            .location
            .distance_km(&self.cluster(b).location)
    }
}

/// The region layout used by [`Topology::default_world`].
pub fn default_region_specs() -> Vec<RegionSpec> {
    vec![
        RegionSpec {
            name: "us-east",
            continent: Continent::NorthAmerica,
            location: GeoPoint::new(37.5, -77.4),
            datacenters: 3,
            clusters_per_dc: 4,
        },
        RegionSpec {
            name: "us-central",
            continent: Continent::NorthAmerica,
            location: GeoPoint::new(41.3, -95.9),
            datacenters: 3,
            clusters_per_dc: 4,
        },
        RegionSpec {
            name: "us-west",
            continent: Continent::NorthAmerica,
            location: GeoPoint::new(45.6, -121.2),
            datacenters: 2,
            clusters_per_dc: 4,
        },
        RegionSpec {
            name: "europe-west",
            continent: Continent::Europe,
            location: GeoPoint::new(50.4, 3.8),
            datacenters: 2,
            clusters_per_dc: 4,
        },
        RegionSpec {
            name: "asia-east",
            continent: Continent::Asia,
            location: GeoPoint::new(24.1, 120.7),
            datacenters: 1,
            clusters_per_dc: 4,
        },
        RegionSpec {
            name: "southamerica-east",
            continent: Continent::SouthAmerica,
            location: GeoPoint::new(-23.5, -46.6),
            datacenters: 1,
            clusters_per_dc: 4,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_world_has_expected_shape() {
        let t = Topology::default_world(1);
        assert_eq!(t.regions.len(), 6);
        assert_eq!(t.datacenters.len(), 12);
        assert_eq!(t.num_clusters(), 48);
        assert_eq!(t.cluster_ids().len(), 48);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let a = Topology::default_world(9);
        let b = Topology::default_world(9);
        let c = Topology::default_world(10);
        for id in a.cluster_ids() {
            assert_eq!(a.cluster(id).location, b.cluster(id).location);
        }
        // A different seed must move at least one datacenter.
        assert!(a
            .cluster_ids()
            .iter()
            .any(|&id| a.cluster(id).location != c.cluster(id).location));
    }

    #[test]
    fn path_class_covers_all_variants() {
        let t = Topology::default_world(2);
        let ids = t.cluster_ids();
        let mut seen = std::collections::BTreeSet::new();
        for &a in &ids {
            for &b in &ids {
                seen.insert(t.path_class(a, b));
            }
        }
        assert!(seen.contains(&PathClass::SameCluster));
        assert!(seen.contains(&PathClass::SameDatacenter));
        assert!(seen.contains(&PathClass::SameRegion));
        assert!(seen.contains(&PathClass::SameContinent));
        assert!(seen.contains(&PathClass::InterContinent));
    }

    #[test]
    fn path_class_is_symmetric() {
        let t = Topology::default_world(3);
        let ids = t.cluster_ids();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(t.path_class(a, b), t.path_class(b, a));
            }
        }
    }

    #[test]
    fn same_datacenter_clusters_share_location() {
        let t = Topology::default_world(4);
        for c in t.clusters() {
            let dc = t.datacenter(c.datacenter);
            assert_eq!(c.location, dc.location);
            assert_eq!(c.region, dc.region);
        }
    }

    #[test]
    fn intercontinental_distances_are_large() {
        let t = Topology::default_world(5);
        let ids = t.cluster_ids();
        for &a in &ids {
            for &b in &ids {
                match t.path_class(a, b) {
                    PathClass::InterContinent => {
                        assert!(t.distance_km(a, b) > 4_000.0)
                    }
                    PathClass::SameDatacenter | PathClass::SameCluster => {
                        assert!(t.distance_km(a, b) < 1.0)
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_specs_panic() {
        let _ = Topology::build(&[], 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PathClass::SameRegion.label(), "different DC, same country");
        assert_eq!(PathClass::InterContinent.label(), "different continents");
    }

    #[test]
    fn wan_classes_leave_the_datacenter() {
        assert!(!PathClass::SameCluster.is_wan());
        assert!(!PathClass::SameDatacenter.is_wan());
        assert!(PathClass::SameRegion.is_wan());
        assert!(PathClass::SameContinent.is_wan());
        assert!(PathClass::InterContinent.is_wan());
    }
}
