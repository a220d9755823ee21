//! Generic lumped RC thermal network.

use hmc_types::{Celsius, SimDuration, Watts};

/// Index of a node inside an [`RcNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Returns the dense node index.
    pub const fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    /// Heat capacity in J/K.
    capacity: f64,
    /// Conductance to ambient in W/K.
    g_ambient: f64,
}

/// Builder for [`RcNetwork`].
///
/// # Examples
///
/// ```
/// use thermal::RcNetworkBuilder;
/// let mut b = RcNetworkBuilder::new(25.0);
/// let a = b.add_node("die", 0.5, 0.0);
/// let s = b.add_node("sink", 10.0, 0.5);
/// b.connect(a, s, 2.0);
/// let net = b.build();
/// assert_eq!(net.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RcNetworkBuilder {
    nodes: Vec<Node>,
    edges: Vec<(usize, usize, f64)>,
    ambient: f64,
}

impl RcNetworkBuilder {
    /// Starts a network with the given ambient temperature in °C.
    pub fn new(ambient_celsius: f64) -> Self {
        RcNetworkBuilder {
            nodes: Vec::new(),
            edges: Vec::new(),
            ambient: ambient_celsius,
        }
    }

    /// Adds a node with heat capacity `capacity` (J/K) and conductance
    /// `g_ambient` (W/K) to the ambient. Returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive or `g_ambient` is
    /// negative.
    pub fn add_node(&mut self, name: impl Into<String>, capacity: f64, g_ambient: f64) -> NodeId {
        assert!(capacity > 0.0, "heat capacity must be positive");
        assert!(g_ambient >= 0.0, "ambient conductance must be non-negative");
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            capacity,
            g_ambient,
        });
        id
    }

    /// Connects two nodes with thermal conductance `g` (W/K).
    ///
    /// # Panics
    ///
    /// Panics if `g` is not strictly positive or `a == b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, g: f64) {
        assert!(g > 0.0, "conductance must be positive");
        assert_ne!(a, b, "cannot connect a node to itself");
        self.edges.push((a.0, b.0, g));
    }

    /// Finalizes the network. All nodes start at ambient temperature.
    pub fn build(self) -> RcNetwork {
        let n = self.nodes.len();
        let temperatures = vec![self.ambient; n];
        // Pre-compute, per node, the total conductance and the adjacency
        // list, to make the inner integration loop allocation-free.
        let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(a, b, g) in &self.edges {
            adjacency[a].push((b, g));
            adjacency[b].push((a, g));
        }
        let total_g: Vec<f64> = (0..n)
            .map(|i| self.nodes[i].g_ambient + adjacency[i].iter().map(|&(_, g)| g).sum::<f64>())
            .collect();
        let mut net = RcNetwork {
            nodes: self.nodes,
            adjacency,
            total_g,
            temperatures,
            scratch: vec![0.0; n],
            ambient: self.ambient,
            dt_max: 0.0,
        };
        net.dt_max = 0.5 * net.max_stable_dt();
        net
    }
}

/// A lumped-parameter thermal network integrated with forward Euler.
///
/// The network automatically sub-steps the integration to respect the
/// stability limit `dt < min_i C_i / G_i`, so callers can use any outer
/// timestep.
#[derive(Debug, Clone)]
pub struct RcNetwork {
    nodes: Vec<Node>,
    adjacency: Vec<Vec<(usize, f64)>>,
    total_g: Vec<f64>,
    temperatures: Vec<f64>,
    scratch: Vec<f64>,
    ambient: f64,
    /// Sub-step length in seconds: half the stability limit, for accuracy
    /// headroom. Depends only on the conductances, so it is refreshed by
    /// [`set_ambient_conductance`](Self::set_ambient_conductance), their
    /// only mutator, rather than recomputed every step.
    dt_max: f64,
}

impl RcNetwork {
    /// Number of nodes in the network.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns the ambient temperature.
    pub fn ambient(&self) -> Celsius {
        Celsius::new(self.ambient)
    }

    /// Longest forward-Euler sub-step [`step`](Self::step) takes, in
    /// seconds: half the stability limit of the current conductances. A
    /// step no longer than this is a single sub-step.
    pub fn dt_max(&self) -> f64 {
        self.dt_max
    }

    /// Returns the current temperature of `node`.
    pub fn temperature(&self, node: NodeId) -> Celsius {
        Celsius::new(self.temperatures[node.0])
    }

    /// Returns the name given to `node` at construction.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// Returns all node temperatures in node order.
    pub fn temperatures(&self) -> Vec<Celsius> {
        self.temperatures
            .iter()
            .copied()
            .map(Celsius::new)
            .collect()
    }

    /// Sets every node to the given temperature (e.g. to model a cooled-down
    /// board at experiment start).
    pub fn set_uniform(&mut self, t: Celsius) {
        self.temperatures.fill(t.value());
    }

    /// Replaces the conductance to ambient of `node` (used when switching
    /// cooling configurations).
    pub fn set_ambient_conductance(&mut self, node: NodeId, g: f64) {
        assert!(g >= 0.0, "ambient conductance must be non-negative");
        let old = self.nodes[node.0].g_ambient;
        self.nodes[node.0].g_ambient = g;
        self.total_g[node.0] += g - old;
        self.dt_max = 0.5 * self.max_stable_dt();
    }

    /// Largest stable forward-Euler step for the current conductances.
    fn max_stable_dt(&self) -> f64 {
        self.nodes
            .iter()
            .zip(&self.total_g)
            .map(|(node, &g)| {
                if g > 0.0 {
                    node.capacity / g
                } else {
                    f64::INFINITY
                }
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Advances the network by `dt` with the given per-node power inputs.
    ///
    /// Powers for nodes beyond `powers.len()` are treated as zero.
    ///
    /// # Panics
    ///
    /// Panics if `powers` has more entries than the network has nodes.
    pub fn step(&mut self, powers: &[Watts], dt: SimDuration) {
        assert!(
            powers.len() <= self.nodes.len(),
            "more power inputs than nodes"
        );
        let total = dt.as_secs_f64();
        if total <= 0.0 {
            return;
        }
        let substeps = (total / self.dt_max).ceil().max(1.0) as usize;
        let h = total / substeps as f64;
        for _ in 0..substeps {
            self.substep(powers, h);
        }
    }

    fn substep(&mut self, powers: &[Watts], h: f64) {
        let n = self.nodes.len();
        for i in 0..n {
            let t_i = self.temperatures[i];
            let mut flow = self.nodes[i].g_ambient * (self.ambient - t_i);
            for &(j, g) in &self.adjacency[i] {
                flow += g * (self.temperatures[j] - t_i);
            }
            let p = powers.get(i).map_or(0.0, |w| w.value());
            self.scratch[i] = t_i + h * (p + flow) / self.nodes[i].capacity;
        }
        std::mem::swap(&mut self.temperatures, &mut self.scratch);
    }

    /// Solves for the steady-state temperatures under constant `powers`
    /// using Gaussian elimination (the networks here are small).
    ///
    /// Returns `None` if the system is singular, which happens when some
    /// connected component has no path to ambient.
    #[allow(clippy::needless_range_loop)] // index-based Gaussian elimination
    pub fn steady_state(&self, powers: &[Watts]) -> Option<Vec<Celsius>> {
        let n = self.nodes.len();
        // Build G * T = P + g_amb * T_amb where G has total conductance on
        // the diagonal and -g on off-diagonals.
        let mut a = vec![vec![0.0f64; n + 1]; n];
        for i in 0..n {
            a[i][i] = self.total_g[i];
            for &(j, g) in &self.adjacency[i] {
                a[i][j] -= g;
            }
            let p = powers.get(i).map_or(0.0, |w| w.value());
            a[i][n] = p + self.nodes[i].g_ambient * self.ambient;
        }
        // Gaussian elimination with partial pivoting.
        for col in 0..n {
            let pivot = (col..n).max_by(|&r1, &r2| {
                a[r1][col]
                    .abs()
                    .partial_cmp(&a[r2][col].abs())
                    .expect("conductances are finite")
            })?;
            if a[pivot][col].abs() < 1e-12 {
                return None;
            }
            a.swap(col, pivot);
            for row in col + 1..n {
                let factor = a[row][col] / a[col][col];
                for k in col..=n {
                    a[row][k] -= factor * a[col][k];
                }
            }
        }
        let mut t = vec![0.0f64; n];
        for row in (0..n).rev() {
            let mut sum = a[row][n];
            for col in row + 1..n {
                sum -= a[row][col] * t[col];
            }
            t[row] = sum / a[row][row];
        }
        Some(t.into_iter().map(Celsius::new).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> (RcNetwork, NodeId, NodeId) {
        let mut b = RcNetworkBuilder::new(25.0);
        let die = b.add_node("die", 0.5, 0.0);
        let sink = b.add_node("sink", 5.0, 0.5);
        b.connect(die, sink, 2.0);
        (b.build(), die, sink)
    }

    #[test]
    fn starts_at_ambient() {
        let (net, die, sink) = two_node();
        assert_eq!(net.temperature(die), Celsius::new(25.0));
        assert_eq!(net.temperature(sink), Celsius::new(25.0));
    }

    #[test]
    fn heats_up_under_power_and_cools_down_without() {
        let (mut net, die, _) = two_node();
        for _ in 0..10_000 {
            net.step(&[Watts::new(2.0)], SimDuration::from_millis(10));
        }
        let hot = net.temperature(die);
        assert!(hot.value() > 29.5, "die should heat up, got {hot}");
        for _ in 0..100_000 {
            net.step(&[], SimDuration::from_millis(10));
        }
        let cooled = net.temperature(die);
        assert!(
            (cooled.value() - 25.0).abs() < 0.1,
            "die should return to ambient, got {cooled}"
        );
    }

    #[test]
    fn converges_to_steady_state() {
        let (mut net, die, sink) = two_node();
        let powers = [Watts::new(2.0)];
        let ss = net.steady_state(&powers).unwrap();
        for _ in 0..200_000 {
            net.step(&powers, SimDuration::from_millis(10));
        }
        assert!((net.temperature(die).value() - ss[die.index()].value()).abs() < 0.05);
        assert!((net.temperature(sink).value() - ss[sink.index()].value()).abs() < 0.05);
    }

    #[test]
    fn steady_state_matches_analytic_two_node() {
        // P flows die -> sink -> ambient: T_sink = amb + P/g_amb,
        // T_die = T_sink + P/g_die_sink.
        let (net, die, sink) = two_node();
        let ss = net.steady_state(&[Watts::new(2.0)]).unwrap();
        assert!((ss[sink.index()].value() - (25.0 + 2.0 / 0.5)).abs() < 1e-9);
        assert!((ss[die.index()].value() - (25.0 + 2.0 / 0.5 + 2.0 / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn singular_without_ambient_path() {
        let mut b = RcNetworkBuilder::new(25.0);
        let a = b.add_node("a", 1.0, 0.0);
        let c = b.add_node("b", 1.0, 0.0);
        b.connect(a, c, 1.0);
        let net = b.build();
        assert!(net.steady_state(&[Watts::new(1.0)]).is_none());
    }

    #[test]
    fn large_outer_step_is_stable() {
        let (mut net, die, _) = two_node();
        // One huge outer step must be internally sub-stepped and stay finite.
        net.step(&[Watts::new(2.0)], SimDuration::from_secs(100));
        let t = net.temperature(die).value();
        assert!(t.is_finite() && t < 100.0, "unstable integration: {t}");
    }

    #[test]
    fn set_ambient_conductance_changes_steady_state() {
        let (net, die, _) = two_node();
        let hot = net.steady_state(&[Watts::new(2.0)]).unwrap()[die.index()];
        let mut net2 = net.clone();
        let sink = NodeId(1);
        net2.set_ambient_conductance(sink, 1.0);
        let cool = net2.steady_state(&[Watts::new(2.0)]).unwrap()[die.index()];
        assert!(cool < hot);
    }

    #[test]
    fn cached_step_follows_ambient_conductance() {
        // Node `a` is the stiffest (C/G = 0.25 s); raising its ambient
        // conductance shrinks the stability limit so a 100 ms step needs
        // more sub-steps than before.
        let build = |g_a: f64| {
            let mut b = RcNetworkBuilder::new(25.0);
            let a = b.add_node("a", 0.25, g_a);
            let s = b.add_node("s", 4.0, 0.25);
            b.connect(a, s, 0.5);
            b.build()
        };
        let dt = SimDuration::from_millis(100);
        let substeps = |net: &RcNetwork| (dt.as_secs_f64() / net.dt_max).ceil();
        let mut changed = build(0.5);
        // Unpowered steps at ambient use the old cache and leave every
        // temperature exactly at ambient.
        for _ in 0..10 {
            changed.step(&[], dt);
        }
        let before = substeps(&changed);
        changed.set_ambient_conductance(NodeId(0), 4.0);
        assert!(
            substeps(&changed) > before,
            "the sub-step count must change"
        );
        let mut fresh = build(4.0);
        for _ in 0..1_000 {
            changed.step(&[Watts::new(1.0)], dt);
            fresh.step(&[Watts::new(1.0)], dt);
        }
        let bits = |net: &RcNetwork| -> Vec<u64> {
            net.temperatures()
                .iter()
                .map(|t| t.value().to_bits())
                .collect()
        };
        assert_eq!(bits(&changed), bits(&fresh));
    }

    #[test]
    fn set_uniform_overrides_state() {
        let (mut net, die, _) = two_node();
        net.set_uniform(Celsius::new(40.0));
        assert_eq!(net.temperature(die), Celsius::new(40.0));
    }

    #[test]
    fn heat_spreads_to_unpowered_neighbour() {
        let mut b = RcNetworkBuilder::new(25.0);
        let a = b.add_node("a", 0.3, 0.2);
        let c = b.add_node("c", 0.3, 0.2);
        b.connect(a, c, 0.5);
        let mut net = b.build();
        for _ in 0..50_000 {
            net.step(&[Watts::new(1.0)], SimDuration::from_millis(10));
        }
        // The unpowered node must be above ambient but below the powered one.
        let ta = net.temperature(a).value();
        let tc = net.temperature(c).value();
        assert!(tc > 26.0, "neighbour should warm up, got {tc}");
        assert!(ta > tc, "powered node should be hotter");
    }
}
