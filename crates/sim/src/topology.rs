//! Grid topology: hosts, clusters, links, and routing.
//!
//! The emulated grid mirrors the structure of the GrADS testbeds: a set of
//! *clusters* (UCSD, UTK, UIUC, UH in the paper), each containing *hosts*
//! connected to a cluster switch by a local link, with *WAN links* joining
//! cluster switches across the (emulated) Internet.
//!
//! Routes are host → switch → (WAN hops) → switch → host; the WAN hop
//! sequence is the minimum-hop path over the cluster graph, computed by BFS
//! and cached.

use std::collections::HashMap;
use std::fmt;

/// Identifies a host in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Identifies a cluster (a LAN of hosts behind one switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

/// Identifies a network link (host uplink or WAN link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Processor architecture of a host. The binder uses this to pick
/// architecture-specific configuration (the paper's IA-32/IA-64 heterogeneity
/// demonstration).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Arch {
    /// 32-bit x86 (the original GrADS testbed Pentiums).
    Ia32,
    /// Itanium (added for the SC2003 heterogeneity demo).
    Ia64,
    /// Anything else, by name.
    Other(String),
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arch::Ia32 => write!(f, "ia32"),
            Arch::Ia64 => write!(f, "ia64"),
            Arch::Other(s) => write!(f, "{s}"),
        }
    }
}

/// Static description of a host used when adding hosts to a builder.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Peak floating-point rate of one core, in flop/s.
    pub speed: f64,
    /// Number of cores (the UTK nodes in the paper are dual-processor).
    pub cores: u32,
    /// Processor architecture.
    pub arch: Arch,
    /// Memory capacity in bytes (checked by schedulers as a minimum
    /// requirement; components that do not fit get rank = infinity).
    pub memory: u64,
    /// Cache capacity in bytes (used by the reuse-distance cache model).
    pub cache_bytes: u64,
}

impl Default for HostSpec {
    fn default() -> Self {
        HostSpec {
            speed: 1e9,
            cores: 1,
            arch: Arch::Ia32,
            memory: 1 << 30,
            cache_bytes: 512 * 1024,
        }
    }
}

impl HostSpec {
    /// Convenience constructor with the given speed in flop/s.
    pub fn with_speed(speed: f64) -> Self {
        HostSpec {
            speed,
            ..Default::default()
        }
    }
}

/// A host in the built grid.
#[derive(Debug, Clone)]
pub struct Host {
    /// Human-readable name, e.g. `"utk-0"`.
    pub name: String,
    /// Cluster membership.
    pub cluster: ClusterId,
    /// Peak per-core rate, flop/s.
    pub speed: f64,
    /// Core count.
    pub cores: u32,
    /// Architecture.
    pub arch: Arch,
    /// Memory in bytes.
    pub memory: u64,
    /// Cache size in bytes.
    pub cache_bytes: u64,
    /// Transmit link from this host to its cluster switch (full-duplex
    /// NIC: transmit and receive have independent capacity).
    pub uplink_tx: LinkId,
    /// Receive link from the cluster switch to this host.
    pub uplink_rx: LinkId,
}

/// A network link with fixed capacity and latency.
#[derive(Debug, Clone)]
pub struct Link {
    /// Name for traces, e.g. `"utk-0<->utk"` or `"utk<->uiuc"`.
    pub name: String,
    /// Capacity in bytes/s, shared max-min fairly among flows.
    pub bandwidth: f64,
    /// One-way latency in seconds.
    pub latency: f64,
}

/// A cluster: a named switch plus member hosts.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Cluster name, e.g. `"UTK"`.
    pub name: String,
    /// Hosts in this cluster.
    pub hosts: Vec<HostId>,
    /// WAN adjacency: (peer cluster, link joining the two switches).
    pub wan: Vec<(ClusterId, LinkId)>,
}

/// A resolved route between two hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Links traversed, in order. Empty for a same-host route.
    pub links: Vec<LinkId>,
    /// Total one-way latency in seconds.
    pub latency: f64,
}

/// An immutable grid topology produced by [`GridBuilder::build`].
#[derive(Debug, Clone)]
pub struct Grid {
    hosts: Vec<Host>,
    clusters: Vec<Cluster>,
    links: Vec<Link>,
    /// Minimum-hop WAN link path for every ordered cluster pair, dense
    /// `clusters × clusters` at `src * clusters + dst`: empty within a
    /// cluster, `None` for a pair the builder found disconnected (only
    /// possible when one of the two clusters has no hosts).
    cluster_paths: Vec<Option<Box<[LinkId]>>>,
}

impl Grid {
    /// All hosts, indexable by `HostId.0`.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// All clusters, indexable by `ClusterId.0`.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// All links, indexable by `LinkId.0`.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Look up one host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// Look up one link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Look up one cluster.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.0 as usize]
    }

    /// Find a host by name. O(n); intended for test and setup code.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.hosts
            .iter()
            .position(|h| h.name == name)
            .map(|i| HostId(i as u32))
    }

    /// Find a cluster by name. O(n); intended for test and setup code.
    pub fn cluster_by_name(&self, name: &str) -> Option<ClusterId> {
        self.clusters
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClusterId(i as u32))
    }

    /// Resolve the route between two hosts: [`Grid::route_links`]
    /// collected, with [`Grid::route_static`]'s latency.
    ///
    /// Same-host routes are empty with zero latency. Intra-cluster routes
    /// traverse both host uplinks. Inter-cluster routes additionally traverse
    /// the minimum-hop WAN path between the two cluster switches.
    ///
    /// # Panics
    /// Panics if the clusters are not connected (the builder validates
    /// connectivity, so this cannot happen for a built grid).
    pub fn route(&self, src: HostId, dst: HostId) -> Route {
        Route {
            links: self.route_links(src, dst).collect(),
            latency: self.route_static(src, dst).1,
        }
    }

    /// The links of the route from `src` to `dst`, in order: `src`'s
    /// transmit uplink, the minimum-hop WAN path between the two cluster
    /// switches (empty within a cluster), then `dst`'s receive uplink.
    /// Empty when `src == dst`. Allocates nothing.
    ///
    /// # Panics
    /// Panics if the clusters are not connected, like [`Grid::route`].
    pub fn route_links(
        &self,
        src: HostId,
        dst: HostId,
    ) -> impl Iterator<Item = LinkId> + Clone + '_ {
        let (s, d) = (self.host(src), self.host(dst));
        let (ends, wan): (Option<(LinkId, LinkId)>, &[LinkId]) = if src == dst {
            (None, &[])
        } else {
            let n = self.clusters.len();
            let path = self.cluster_paths[s.cluster.0 as usize * n + d.cluster.0 as usize]
                .as_deref()
                .expect("clusters disconnected: builder validation should prevent this");
            (Some((s.uplink_tx, d.uplink_rx)), path)
        };
        let tx = ends.map(|e| e.0);
        let rx = ends.map(|e| e.1);
        tx.into_iter().chain(wan.iter().copied()).chain(rx)
    }

    /// The static `(bandwidth, latency)` of the route from `src` to
    /// `dst`: the bottleneck capacity, folded over [`Grid::route_links`]
    /// in link order with `fold(INFINITY, f64::min)`, and the one-way
    /// latency summed with `.sum()` in the same order. `(INFINITY, 0.0)`
    /// when `src == dst`. This is the one formula every static-route
    /// consumer uses (the kernel's route table, the NWS fallback, the
    /// forecast snapshot); the fold order fixes its bits. Allocates
    /// nothing.
    ///
    /// # Panics
    /// Panics if the clusters are not connected, like [`Grid::route`].
    pub fn route_static(&self, src: HostId, dst: HostId) -> (f64, f64) {
        if src == dst {
            // An empty `.sum()` is −0.0; a same-host route has +0.0.
            return (f64::INFINITY, 0.0);
        }
        let links = self.route_links(src, dst);
        let bandwidth = links
            .clone()
            .map(|l| self.link(l).bandwidth)
            .fold(f64::INFINITY, f64::min);
        let latency = links.map(|l| self.link(l).latency).sum();
        (bandwidth, latency)
    }

    /// Appends the route's link indices (as raw `u32`s) to `out` and
    /// returns the total one-way latency, like [`Grid::route`] without a
    /// fresh vector.
    ///
    /// # Panics
    /// Panics if the clusters are not connected, like [`Grid::route`].
    pub fn route_links_into(&self, src: HostId, dst: HostId, out: &mut Vec<u32>) -> f64 {
        out.extend(self.route_links(src, dst).map(|l| l.0));
        self.route_static(src, dst).1
    }

    /// Hosts of a given cluster, by name.
    pub fn hosts_of(&self, cluster: &str) -> Vec<HostId> {
        match self.cluster_by_name(cluster) {
            Some(c) => self.cluster(c).hosts.clone(),
            None => Vec::new(),
        }
    }
}

/// Errors raised while building a grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Two clusters cannot reach each other over WAN links.
    Disconnected(String, String),
    /// A duplicate cluster name was registered.
    DuplicateCluster(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Disconnected(a, b) => {
                write!(f, "clusters {a:?} and {b:?} are not connected")
            }
            TopologyError::DuplicateCluster(n) => write!(f, "duplicate cluster name {n:?}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Incremental builder for [`Grid`] topologies.
///
/// ```
/// use grads_sim::topology::{GridBuilder, HostSpec};
///
/// let mut b = GridBuilder::new();
/// let utk = b.cluster("UTK");
/// let uiuc = b.cluster("UIUC");
/// b.add_hosts(utk, 4, &HostSpec::with_speed(933e6));
/// b.add_hosts(uiuc, 8, &HostSpec::with_speed(450e6));
/// b.connect(utk, uiuc, 12.5e6, 0.011); // 100 Mb/s, 11 ms
/// let grid = b.build().unwrap();
/// assert_eq!(grid.hosts().len(), 12);
/// ```
#[derive(Debug, Default)]
pub struct GridBuilder {
    hosts: Vec<Host>,
    clusters: Vec<Cluster>,
    links: Vec<Link>,
    /// Default intra-cluster uplink characteristics per cluster.
    local_link: HashMap<ClusterId, (f64, f64)>,
}

/// Default host-to-switch bandwidth: 1 Gb/s in bytes/s.
pub const DEFAULT_LOCAL_BW: f64 = 125e6;
/// Default host-to-switch latency: 50 µs.
pub const DEFAULT_LOCAL_LAT: f64 = 50e-6;

impl GridBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a cluster and return its id.
    pub fn cluster(&mut self, name: &str) -> ClusterId {
        let id = ClusterId(self.clusters.len() as u32);
        self.clusters.push(Cluster {
            name: name.to_string(),
            hosts: Vec::new(),
            wan: Vec::new(),
        });
        id
    }

    /// Set the local (host-to-switch) link characteristics used for hosts
    /// subsequently added to `cluster`.
    pub fn local_link(&mut self, cluster: ClusterId, bandwidth: f64, latency: f64) {
        self.local_link.insert(cluster, (bandwidth, latency));
    }

    /// Add `n` identical hosts to a cluster; returns their ids.
    pub fn add_hosts(&mut self, cluster: ClusterId, n: usize, spec: &HostSpec) -> Vec<HostId> {
        (0..n).map(|_| self.add_host(cluster, spec)).collect()
    }

    /// Add one host to a cluster.
    pub fn add_host(&mut self, cluster: ClusterId, spec: &HostSpec) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        let cname = self.clusters[cluster.0 as usize].name.clone();
        let (bw, lat) = self
            .local_link
            .get(&cluster)
            .copied()
            .unwrap_or((DEFAULT_LOCAL_BW, DEFAULT_LOCAL_LAT));
        let uplink_tx = LinkId(self.links.len() as u32);
        let uplink_rx = LinkId(self.links.len() as u32 + 1);
        let idx = self.clusters[cluster.0 as usize].hosts.len();
        let name = format!("{}-{}", cname.to_lowercase(), idx);
        self.links.push(Link {
            name: format!("{name}->{cname}"),
            bandwidth: bw,
            latency: lat,
        });
        self.links.push(Link {
            name: format!("{cname}->{name}"),
            bandwidth: bw,
            latency: lat,
        });
        self.hosts.push(Host {
            name,
            cluster,
            speed: spec.speed,
            cores: spec.cores,
            arch: spec.arch.clone(),
            memory: spec.memory,
            cache_bytes: spec.cache_bytes,
            uplink_tx,
            uplink_rx,
        });
        self.clusters[cluster.0 as usize].hosts.push(id);
        id
    }

    /// Connect two cluster switches with a WAN link.
    pub fn connect(&mut self, a: ClusterId, b: ClusterId, bandwidth: f64, latency: f64) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        let an = self.clusters[a.0 as usize].name.clone();
        let bn = self.clusters[b.0 as usize].name.clone();
        self.links.push(Link {
            name: format!("{an}<->{bn}"),
            bandwidth,
            latency,
        });
        self.clusters[a.0 as usize].wan.push((b, id));
        self.clusters[b.0 as usize].wan.push((a, id));
        id
    }

    /// Validate and freeze the topology.
    ///
    /// Computes all-pairs minimum-hop WAN paths; returns an error if any two
    /// clusters (that both contain hosts) cannot reach each other.
    #[allow(clippy::needless_range_loop)] // BFS over indexed cluster ids
    pub fn build(self) -> Result<Grid, TopologyError> {
        // Duplicate-name check.
        for (i, c) in self.clusters.iter().enumerate() {
            if self.clusters[..i].iter().any(|o| o.name == c.name) {
                return Err(TopologyError::DuplicateCluster(c.name.clone()));
            }
        }
        // BFS from every cluster over the WAN graph.
        let n = self.clusters.len();
        let mut cluster_paths: Vec<Option<Box<[LinkId]>>> = vec![None; n * n];
        let mut path = Vec::new();
        for s in 0..n {
            let src = ClusterId(s as u32);
            let mut prev: Vec<Option<(ClusterId, LinkId)>> = vec![None; n];
            let mut seen = vec![false; n];
            let mut queue = std::collections::VecDeque::new();
            seen[s] = true;
            queue.push_back(src);
            while let Some(c) = queue.pop_front() {
                for &(peer, link) in &self.clusters[c.0 as usize].wan {
                    if !seen[peer.0 as usize] {
                        seen[peer.0 as usize] = true;
                        prev[peer.0 as usize] = Some((c, link));
                        queue.push_back(peer);
                    }
                }
            }
            for d in 0..n {
                if !seen[d] {
                    if !self.clusters[s].hosts.is_empty() && !self.clusters[d].hosts.is_empty() {
                        return Err(TopologyError::Disconnected(
                            self.clusters[s].name.clone(),
                            self.clusters[d].name.clone(),
                        ));
                    }
                    continue;
                }
                // Reconstruct path s -> d, then copy it out at its length.
                path.clear();
                let mut cur = ClusterId(d as u32);
                while cur.0 as usize != s {
                    let (p, l) = prev[cur.0 as usize].expect("BFS predecessor");
                    path.push(l);
                    cur = p;
                }
                path.reverse();
                cluster_paths[s * n + d] = Some(path[..].into());
            }
        }
        Ok(Grid {
            hosts: self.hosts,
            clusters: self.clusters,
            links: self.links,
            cluster_paths,
        })
    }
}

/// Build the paper's MacroGrid QR testbed (§4.1.2): 4 dual-processor 933 MHz
/// UTK nodes on 100 Mb switched Ethernet, 8 single-processor 450 MHz UIUC
/// nodes on 1.28 Gb/s Myrinet, joined by an Internet path.
pub fn macrogrid_qr() -> Grid {
    let mut b = GridBuilder::new();
    let utk = b.cluster("UTK");
    b.local_link(utk, 12.5e6, 100e-6); // 100 Mb/s switched Ethernet
    b.add_hosts(
        utk,
        4,
        &HostSpec {
            speed: 933e6,
            cores: 2,
            arch: Arch::Ia32,
            memory: 2 << 30,
            cache_bytes: 256 * 1024,
        },
    );
    let uiuc = b.cluster("UIUC");
    b.local_link(uiuc, 160e6, 20e-6); // 1.28 Gb/s full-duplex Myrinet
    b.add_hosts(
        uiuc,
        8,
        &HostSpec {
            speed: 450e6,
            cores: 1,
            arch: Arch::Ia32,
            memory: 1 << 30,
            cache_bytes: 512 * 1024,
        },
    );
    // Internet path between the sites: modest shared bandwidth, wide-area
    // latency. (The paper reports the clusters are "connected via the
    // Internet"; 4 MB/s with 30 ms one-way latency is representative of 2003
    // academic Internet2 paths.)
    b.connect(utk, uiuc, 4e6, 0.030);
    b.build().expect("static topology")
}

/// Build the paper's MicroGrid N-body testbed (§4.2.2): three 550 MHz UTK
/// nodes, three 450 MHz UIUC nodes (both on Gigabit Ethernet LANs), and one
/// 1.7 GHz UCSD node; 30 ms latency UCSD<->others, 11 ms UTK<->UIUC.
pub fn microgrid_nbody() -> Grid {
    let mut b = GridBuilder::new();
    let utk = b.cluster("UTK");
    b.local_link(utk, 125e6, 50e-6);
    b.add_hosts(
        utk,
        3,
        &HostSpec {
            speed: 550e6,
            cores: 1,
            arch: Arch::Ia32,
            memory: 1 << 30,
            cache_bytes: 512 * 1024,
        },
    );
    let uiuc = b.cluster("UIUC");
    b.local_link(uiuc, 125e6, 50e-6);
    b.add_hosts(
        uiuc,
        3,
        &HostSpec {
            speed: 450e6,
            cores: 1,
            arch: Arch::Ia32,
            memory: 1 << 30,
            cache_bytes: 512 * 1024,
        },
    );
    let ucsd = b.cluster("UCSD");
    b.local_link(ucsd, 125e6, 50e-6);
    b.add_hosts(
        ucsd,
        1,
        &HostSpec {
            speed: 1.7e9,
            cores: 1,
            arch: Arch::Ia32,
            memory: 1 << 30,
            cache_bytes: 256 * 1024,
        },
    );
    b.connect(utk, uiuc, 8e6, 0.011);
    b.connect(ucsd, utk, 8e6, 0.030);
    b.connect(ucsd, uiuc, 8e6, 0.030);
    b.build().expect("static topology")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_routes_same_host() {
        let g = macrogrid_qr();
        let h = g.hosts_of("UTK")[0];
        let r = g.route(h, h);
        assert!(r.links.is_empty());
        assert_eq!(r.latency, 0.0);
    }

    #[test]
    fn intra_cluster_route_uses_two_uplinks() {
        let g = macrogrid_qr();
        let hs = g.hosts_of("UTK");
        let r = g.route(hs[0], hs[1]);
        assert_eq!(r.links.len(), 2);
        assert!((r.latency - 200e-6).abs() < 1e-12);
    }

    #[test]
    fn inter_cluster_route_traverses_wan() {
        let g = macrogrid_qr();
        let a = g.hosts_of("UTK")[0];
        let b = g.hosts_of("UIUC")[0];
        let r = g.route(a, b);
        assert_eq!(r.links.len(), 3);
        assert!(r.latency > 0.030);
    }

    #[test]
    fn multi_hop_wan_path() {
        let mut b = GridBuilder::new();
        let a = b.cluster("A");
        let c = b.cluster("B");
        let d = b.cluster("C");
        b.add_hosts(a, 1, &HostSpec::default());
        b.add_hosts(c, 1, &HostSpec::default());
        b.add_hosts(d, 1, &HostSpec::default());
        // Chain A - B - C; no direct A-C link.
        b.connect(a, c, 1e6, 0.01);
        b.connect(c, d, 1e6, 0.01);
        let g = b.build().unwrap();
        let r = g.route(HostId(0), HostId(2));
        // uplink + 2 WAN hops + uplink
        assert_eq!(r.links.len(), 4);
    }

    #[test]
    fn disconnected_clusters_rejected() {
        let mut b = GridBuilder::new();
        let a = b.cluster("A");
        let c = b.cluster("B");
        b.add_hosts(a, 1, &HostSpec::default());
        b.add_hosts(c, 1, &HostSpec::default());
        assert!(matches!(b.build(), Err(TopologyError::Disconnected(_, _))));
    }

    #[test]
    fn duplicate_cluster_rejected() {
        let mut b = GridBuilder::new();
        b.cluster("A");
        b.cluster("A");
        assert!(matches!(b.build(), Err(TopologyError::DuplicateCluster(_))));
    }

    #[test]
    fn microgrid_matches_paper_shape() {
        let g = microgrid_nbody();
        assert_eq!(g.hosts_of("UTK").len(), 3);
        assert_eq!(g.hosts_of("UIUC").len(), 3);
        assert_eq!(g.hosts_of("UCSD").len(), 1);
        let utk0 = g.hosts_of("UTK")[0];
        assert_eq!(g.host(utk0).speed, 550e6);
        let ucsd = g.hosts_of("UCSD")[0];
        let r = g.route(ucsd, utk0);
        assert!(r.latency > 0.030 && r.latency < 0.032);
    }

    /// The vec-then-push route of the hash-map topology: `src`'s uplink,
    /// a minimum-hop WAN path found by a fresh BFS in adjacency order,
    /// `dst`'s uplink; bandwidth folded and latency summed over the list.
    fn oracle_route(g: &Grid, src: HostId, dst: HostId) -> (Vec<LinkId>, f64, f64) {
        if src == dst {
            return (Vec::new(), f64::INFINITY, 0.0);
        }
        let (sc, dc) = (g.host(src).cluster, g.host(dst).cluster);
        let mut prev: Vec<Option<(ClusterId, LinkId)>> = vec![None; g.clusters().len()];
        let mut seen = vec![false; g.clusters().len()];
        seen[sc.0 as usize] = true;
        let mut queue = std::collections::VecDeque::from([sc]);
        while let Some(c) = queue.pop_front() {
            for &(peer, link) in &g.cluster(c).wan {
                if !std::mem::replace(&mut seen[peer.0 as usize], true) {
                    prev[peer.0 as usize] = Some((c, link));
                    queue.push_back(peer);
                }
            }
        }
        let mut wan = Vec::new();
        let mut cur = dc;
        while cur != sc {
            let (p, l) = prev[cur.0 as usize].expect("connected");
            wan.push(l);
            cur = p;
        }
        wan.reverse();
        let mut links = vec![g.host(src).uplink_tx];
        links.extend_from_slice(&wan);
        links.push(g.host(dst).uplink_rx);
        let bw = links
            .iter()
            .map(|&l| g.link(l).bandwidth)
            .fold(f64::INFINITY, f64::min);
        let lat = links.iter().map(|&l| g.link(l).latency).sum();
        (links, bw, lat)
    }

    /// Every ordered host pair (same-host, intra- and inter-cluster) of
    /// the paper testbed, an 8-cluster ring with multi-hop WAN paths, and
    /// a 4 × 16 full WAN mesh: the link walker, `route`, `route_static`
    /// and `route_links_into` all equal the oracle bit for bit.
    #[test]
    fn static_route_walker_matches_vec_built_route_bitwise() {
        let ring = {
            let mut b = GridBuilder::new();
            let cl: Vec<ClusterId> = (0..8)
                .map(|c| {
                    let id = b.cluster(&format!("C{c}"));
                    b.local_link(id, 1.0e9, 50e-6);
                    b.add_hosts(id, 4, &HostSpec::with_speed(4.0e8 + 1.0e8 * c as f64));
                    id
                })
                .collect();
            for c in 0..8 {
                b.connect(cl[c], cl[(c + 1) % 8], 5.0e7, 5e-3);
            }
            b.build().unwrap()
        };
        let mesh = {
            let mut b = GridBuilder::new();
            let cl: Vec<ClusterId> = (0..4)
                .map(|c| {
                    let id = b.cluster(&format!("C{c}"));
                    b.local_link(id, 1.0e9, 50e-6);
                    b.add_hosts(id, 16, &HostSpec::with_speed(1.0e9));
                    id
                })
                .collect();
            let mut k = 0.0;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.connect(cl[i], cl[j], 5.0e7 + 1.0e7 * k, 5e-3 + 3e-3 * k);
                    k += 1.0;
                }
            }
            b.build().unwrap()
        };
        let mut max_wan_hops = 0;
        for g in [macrogrid_qr(), ring, mesh] {
            let n = g.hosts().len() as u32;
            for (s, d) in (0..n).flat_map(|s| (0..n).map(move |d| (HostId(s), HostId(d)))) {
                let (links, bw, lat) = oracle_route(&g, s, d);
                max_wan_hops = max_wan_hops.max(links.len().saturating_sub(2));
                assert_eq!(g.route_links(s, d).collect::<Vec<_>>(), links, "{s}->{d}");
                let r = g.route(s, d);
                assert_eq!(r.links, links);
                assert_eq!(r.latency.to_bits(), lat.to_bits());
                let (sbw, slat) = g.route_static(s, d);
                assert_eq!(sbw.to_bits(), bw.to_bits(), "{s}->{d}");
                assert_eq!(slat.to_bits(), lat.to_bits(), "{s}->{d}");
                let mut raw = vec![7];
                let into_lat = g.route_links_into(s, d, &mut raw);
                assert_eq!(raw[0], 7, "appends, keeps what was there");
                assert!(raw[1..].iter().copied().eq(links.iter().map(|l| l.0)));
                assert_eq!(into_lat.to_bits(), lat.to_bits());
            }
        }
        assert_eq!(
            max_wan_hops, 4,
            "the ring's farthest clusters are 4 hops apart"
        );
    }

    #[test]
    fn host_lookup_by_name() {
        let g = macrogrid_qr();
        let id = g.host_by_name("utk-2").unwrap();
        assert_eq!(g.host(id).name, "utk-2");
        assert!(g.host_by_name("nope").is_none());
    }
}
