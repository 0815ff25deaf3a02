//! Ground-truth structural causal models for the simulated systems.
//!
//! Each system is a three-tier SCM — configuration options → system events
//! → performance objectives — with polynomial mechanisms whose coefficients
//! are modulated by the deployment environment (hardware profile ×
//! workload). Options feed mechanisms through their *normalized* grid
//! position; events and objectives carry a reporting `scale` that maps the
//! internal O(1) dynamics onto realistic units (cycles in billions,
//! latency in seconds, …).
//!
//! This is the repository's substitute for the paper's physical testbed
//! (see DESIGN.md): it produces the phenomena the method needs — sparse
//! causal structure, option interactions, confounded events, heavy tails —
//! while exposing exact ground truth for evaluation.

use rand::rngs::StdRng;
use rand::Rng;

use unicorn_graph::{Admg, TierConstraints, VarKind};

use crate::config::{Config, ConfigSpace, OptionKind};
use crate::environment::EnvParams;

/// Environment exponents of a mechanism term: the term's effective
/// coefficient is `coeff · cpuᵃ · gpuᵇ · memᶜ · energyᵈ · thermalᵉ ·
/// microarchᶠ · workloadᵍ`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnvExp {
    /// Exponent on the CPU factor.
    pub cpu: f64,
    /// Exponent on the GPU factor.
    pub gpu: f64,
    /// Exponent on the memory-bandwidth factor.
    pub mem: f64,
    /// Exponent on the energy factor.
    pub energy: f64,
    /// Exponent on the thermal factor.
    pub thermal: f64,
    /// Exponent on the microarchitecture factor.
    pub microarch: f64,
    /// Exponent on the workload scale.
    pub workload: f64,
}

impl EnvExp {
    /// No environment modulation.
    pub fn none() -> Self {
        Self::default()
    }

    /// CPU-bound work: slows down inversely with CPU speed and scales with
    /// workload.
    pub fn cpu_bound() -> Self {
        Self {
            cpu: -1.0,
            workload: 1.0,
            ..Self::default()
        }
    }

    /// Memory-bound work.
    pub fn mem_bound() -> Self {
        Self {
            mem: -1.0,
            workload: 1.0,
            ..Self::default()
        }
    }

    /// Energy-proportional term.
    pub fn energy_term() -> Self {
        Self {
            energy: 1.0,
            workload: 1.0,
            ..Self::default()
        }
    }

    /// Thermal-proportional term.
    pub fn thermal_term() -> Self {
        Self {
            thermal: 1.0,
            ..Self::default()
        }
    }

    /// Microarchitecture-sensitive interaction (drifts across platforms).
    pub fn microarch(exp: f64) -> Self {
        Self {
            microarch: exp,
            ..Self::default()
        }
    }

    fn multiplier(&self, p: &EnvParams) -> f64 {
        p.cpu.powf(self.cpu)
            * p.gpu.powf(self.gpu)
            * p.mem.powf(self.mem)
            * p.energy.powf(self.energy)
            * p.thermal.powf(self.thermal)
            * p.microarch.powf(self.microarch)
            * p.workload.powf(self.workload)
    }
}

/// One polynomial term of a mechanism.
#[derive(Debug, Clone)]
pub struct GtTerm {
    /// Base coefficient.
    pub coeff: f64,
    /// Parent node indices (a multiset: repeats encode powers).
    pub parents: Vec<usize>,
    /// Environment exponents.
    pub env: EnvExp,
}

/// Output transform applied after summing terms (pre-noise values are
/// internal, O(1) magnitudes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// Pass through.
    Identity,
    /// Leaky clamp at zero: events and objectives are non-negative
    /// quantities; the small leak keeps mechanisms strictly monotone so
    /// ground-truth ACEs stay well-defined.
    Positive,
}

impl Transform {
    fn apply(&self, x: f64) -> f64 {
        match self {
            Transform::Identity => x,
            Transform::Positive => {
                if x >= 0.0 {
                    x
                } else {
                    0.05 * x
                }
            }
        }
    }
}

/// A hidden exogenous confounder: one standard-normal draw per (noisy)
/// evaluation, added — scaled per target — to the pre-transform value of
/// every target node. Latents are never observed: they have no column in
/// the dataset, and the noiseless ground truth (`rng = None`) sets them to
/// zero, so fault labels and true ACEs are unaffected. Their only trace is
/// the correlation they induce between their targets — exactly the
/// bidirected-edge semantics of an ADMG, which is how [`SystemModel::true_admg`]
/// reports them.
#[derive(Debug, Clone)]
pub struct LatentConfounder {
    /// Diagnostic name (e.g. `"latent_0"`).
    pub name: String,
    /// Confounded nodes: `(node index, weight)` — the node's pre-transform
    /// value gains `weight · z`.
    pub targets: Vec<(usize, f64)>,
}

/// A non-option node (event or objective) of the ground-truth model.
#[derive(Debug, Clone)]
pub struct GtNode {
    /// Constant offset.
    pub bias: f64,
    /// Mechanism terms.
    pub terms: Vec<GtTerm>,
    /// Output transform.
    pub transform: Transform,
    /// Gaussian noise σ on the internal value.
    pub noise_sd: f64,
    /// Reporting scale: `raw = scale · internal`.
    pub scale: f64,
}

/// A complete simulated system: configuration space + ground-truth SCM.
#[derive(Debug, Clone)]
pub struct SystemModel {
    /// System name (e.g. `"x264"`).
    pub name: String,
    /// The configuration space.
    pub space: ConfigSpace,
    /// Event names (tier 2), in node order.
    pub event_names: Vec<String>,
    /// Objective names (tier 3), in node order. All objectives minimize.
    pub objective_names: Vec<String>,
    /// Mechanisms for events then objectives (indices offset by
    /// `space.len()`).
    pub nodes: Vec<GtNode>,
    /// Hidden exogenous confounders (empty for the paper's real systems;
    /// planted by the synthetic scenario generator).
    pub latents: Vec<LatentConfounder>,
}

impl SystemModel {
    /// Total number of SCM nodes (options + events + objectives).
    pub fn n_nodes(&self) -> usize {
        self.space.len() + self.nodes.len()
    }

    /// Number of options.
    pub fn n_options(&self) -> usize {
        self.space.len()
    }

    /// Number of events.
    pub fn n_events(&self) -> usize {
        self.event_names.len()
    }

    /// Number of objectives.
    pub fn n_objectives(&self) -> usize {
        self.objective_names.len()
    }

    /// Node id of an objective by position in `objective_names`.
    pub fn objective_node(&self, obj_idx: usize) -> usize {
        self.space.len() + self.event_names.len() + obj_idx
    }

    /// Node id of an event by position in `event_names`.
    pub fn event_node(&self, ev_idx: usize) -> usize {
        self.space.len() + ev_idx
    }

    /// All node names in node order.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .space
            .options()
            .iter()
            .map(|o| o.name.clone())
            .collect();
        names.extend(self.event_names.iter().cloned());
        names.extend(self.objective_names.iter().cloned());
        names
    }

    /// Tier constraints in node order.
    pub fn tiers(&self) -> TierConstraints {
        let mut kinds = vec![VarKind::ConfigOption; self.space.len()];
        kinds.extend(vec![VarKind::SystemEvent; self.event_names.len()]);
        kinds.extend(vec![VarKind::Objective; self.objective_names.len()]);
        TierConstraints::new(kinds)
    }

    /// The true causal graph: directed edges from term parents, bidirected
    /// edges between every pair of nodes sharing a latent confounder.
    pub fn true_admg(&self) -> Admg {
        let mut g = Admg::new(self.names());
        let base = self.space.len();
        for (i, node) in self.nodes.iter().enumerate() {
            let target = base + i;
            for t in &node.terms {
                for &p in &t.parents {
                    if p != target && !g.directed_edges().contains(&(p, target)) {
                        g.add_directed(p, target);
                    }
                }
            }
        }
        for latent in &self.latents {
            for (i, &(a, _)) in latent.targets.iter().enumerate() {
                for &(b, _) in &latent.targets[i + 1..] {
                    if a != b {
                        g.add_bidirected(a, b);
                    }
                }
            }
        }
        g
    }

    /// Evaluates the model for one configuration: returns `(internal, raw)`
    /// node-value vectors. `rng` adds measurement noise; pass `None` for
    /// the noiseless ground truth used by fault labeling and true-ACE
    /// computation. An allocating wrapper around `evaluate_into`, the one
    /// evaluation body.
    pub fn evaluate(
        &self,
        config: &Config,
        env: &EnvParams,
        rng: Option<&mut StdRng>,
    ) -> (Vec<f64>, Vec<f64>) {
        let total = self.n_nodes();
        let (mut internal, mut raw) = (vec![0.0; total], vec![0.0; total]);
        let coeffs = self.coefficients(env);
        self.evaluate_into(config, &coeffs, rng, &mut internal, &mut raw);
        (internal, raw)
    }

    /// Every mechanism term's effective coefficient `coeff · cpuᵃ · … ·
    /// workloadᵍ` under `env`, flat in node-then-term order. The seven
    /// `powf` of a term depend on the environment only, so a caller that
    /// evaluates many configurations (or repetitions) in one environment
    /// computes them once and hands them to
    /// [`SystemModel::evaluate_into`].
    pub(crate) fn coefficients(&self, env: &EnvParams) -> Vec<f64> {
        self.nodes
            .iter()
            .flat_map(|node| &node.terms)
            .map(|t| t.coeff * t.env.multiplier(env))
            .collect()
    }

    /// The one evaluation body: fills `internal` and `raw` (both
    /// `n_nodes()` long, overwritten) for `config`, with the term
    /// coefficients of [`SystemModel::coefficients`] and optional noise.
    pub(crate) fn evaluate_into(
        &self,
        config: &Config,
        coeffs: &[f64],
        mut rng: Option<&mut StdRng>,
        internal: &mut [f64],
        raw: &mut [f64],
    ) {
        let n_opt = self.space.len();
        for i in 0..n_opt {
            internal[i] = self.space.option(i).normalize(config.values[i]);
            raw[i] = config.values[i];
        }
        // Hidden confounders draw first (declaration order), so the noise
        // stream of latent-free models is byte-identical to before latents
        // existed. A target's shift accumulates in its own `internal` slot,
        // which starts at zero and is read once, as the node's offset, just
        // before the node is evaluated. The noiseless ground truth pins
        // every latent at zero.
        internal[n_opt..].fill(0.0);
        if let Some(r) = rng.as_deref_mut() {
            for latent in &self.latents {
                let z = standard_normal(r);
                for &(node, w) in &latent.targets {
                    debug_assert!(node >= n_opt, "latent confounder on an option");
                    internal[node] += w * z;
                }
            }
        }
        // Events then objectives are already in dependency order by
        // construction (builders only reference previously defined nodes).
        let mut first_term = 0;
        for (k, node) in self.nodes.iter().enumerate() {
            let idx = n_opt + k;
            let node_coeffs = &coeffs[first_term..first_term + node.terms.len()];
            first_term += node.terms.len();
            let mut v = node.bias + internal[idx];
            for (t, &coeff) in node.terms.iter().zip(node_coeffs) {
                let mut prod = coeff;
                for &p in &t.parents {
                    debug_assert!(p < idx, "forward reference in mechanism");
                    prod *= internal[p];
                }
                v += prod;
            }
            if let Some(r) = rng.as_deref_mut() {
                v += node.noise_sd * standard_normal(r);
            }
            let v = node.transform.apply(v);
            internal[idx] = v;
            raw[idx] = v * node.scale;
        }
    }

    /// Noiseless objective values for a configuration.
    pub fn true_objectives(&self, config: &Config, env: &EnvParams) -> Vec<f64> {
        let (_, raw) = self.evaluate(config, env, None);
        raw[self.space.len() + self.event_names.len()..].to_vec()
    }
}

/// Box–Muller standard normal (the one noise primitive of the testbed).
fn standard_normal(r: &mut StdRng) -> f64 {
    let u1: f64 = r.gen_range(1e-12..1.0);
    let u2: f64 = r.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fluent builder assembling a [`SystemModel`]. Mechanisms reference nodes
/// by name, so system definitions read like the paper's appendix tables.
#[derive(Debug)]
pub struct SystemBuilder {
    name: String,
    space: ConfigSpace,
    event_names: Vec<String>,
    objective_names: Vec<String>,
    nodes: Vec<GtNode>,
    latents: Vec<LatentConfounder>,
}

impl SystemBuilder {
    /// Starts a system definition.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            space: ConfigSpace::new(),
            event_names: Vec::new(),
            objective_names: Vec::new(),
            nodes: Vec::new(),
            latents: Vec::new(),
        }
    }

    /// Adds a configuration option.
    pub fn option(&mut self, name: &str, values: &[f64], kind: OptionKind) -> &mut Self {
        assert!(
            self.event_names.is_empty() && self.objective_names.is_empty(),
            "define all options before events/objectives"
        );
        self.space.add(name, values, kind);
        self
    }

    /// Adds a configuration option with an explicit default.
    pub fn option_with_default(
        &mut self,
        name: &str,
        values: &[f64],
        kind: OptionKind,
        default_idx: usize,
    ) -> &mut Self {
        assert!(
            self.event_names.is_empty() && self.objective_names.is_empty(),
            "define all options before events/objectives"
        );
        self.space.add_with_default(name, values, kind, default_idx);
        self
    }

    /// Declares an event node.
    pub fn event(&mut self, name: &str, scale: f64, noise_sd: f64) -> &mut Self {
        assert!(
            self.objective_names.is_empty(),
            "define all events before objectives"
        );
        self.event_names.push(name.to_string());
        self.nodes.push(GtNode {
            bias: 0.0,
            terms: Vec::new(),
            transform: Transform::Positive,
            noise_sd,
            scale,
        });
        self
    }

    /// Declares an objective node (minimized).
    pub fn objective(&mut self, name: &str, scale: f64, noise_sd: f64) -> &mut Self {
        self.objective_names.push(name.to_string());
        self.nodes.push(GtNode {
            bias: 0.0,
            terms: Vec::new(),
            transform: Transform::Positive,
            noise_sd,
            scale,
        });
        self
    }

    fn node_index(&self, name: &str) -> usize {
        if let Some(i) = self.space.index_of(name) {
            return i;
        }
        if let Some(i) = self.event_names.iter().position(|n| n == name) {
            return self.space.len() + i;
        }
        if let Some(i) = self.objective_names.iter().position(|n| n == name) {
            return self.space.len() + self.event_names.len() + i;
        }
        panic!("unknown node name: {name}");
    }

    fn target_slot(&mut self, target: &str) -> &mut GtNode {
        let idx = self.node_index(target);
        let n_opt = self.space.len();
        assert!(idx >= n_opt, "cannot give a mechanism to an option");
        &mut self.nodes[idx - n_opt]
    }

    /// Sets the bias of an event/objective.
    pub fn bias(&mut self, target: &str, bias: f64) -> &mut Self {
        self.target_slot(target).bias = bias;
        self
    }

    /// Adds a mechanism term `coeff · Π parents` (with environment
    /// exponents) to an event/objective.
    pub fn term(&mut self, target: &str, coeff: f64, parents: &[&str], env: EnvExp) -> &mut Self {
        let parent_ids: Vec<usize> = parents.iter().map(|p| self.node_index(p)).collect();
        let target_id = self.node_index(target);
        for &p in &parent_ids {
            assert!(p < target_id, "mechanism parent must precede target");
        }
        self.target_slot(target).terms.push(GtTerm {
            coeff,
            parents: parent_ids,
            env,
        });
        self
    }

    /// Plants a hidden confounder over two or more (non-option) nodes:
    /// every noisy evaluation draws one shared standard-normal value and
    /// adds `weight · z` to each target. The ground-truth ADMG reports the
    /// confounded pairs as bidirected edges.
    pub fn latent(&mut self, name: &str, targets: &[(&str, f64)]) -> &mut Self {
        assert!(targets.len() >= 2, "a confounder needs at least 2 targets");
        let resolved: Vec<(usize, f64)> = targets
            .iter()
            .map(|&(n, w)| {
                let idx = self.node_index(n);
                assert!(
                    idx >= self.space.len(),
                    "latent confounders act on events/objectives, not options"
                );
                (idx, w)
            })
            .collect();
        self.latents.push(LatentConfounder {
            name: name.to_string(),
            targets: resolved,
        });
        self
    }

    /// Finishes the definition.
    pub fn build(self) -> SystemModel {
        SystemModel {
            name: self.name,
            space: self.space,
            event_names: self.event_names,
            objective_names: self.objective_names,
            nodes: self.nodes,
            latents: self.latents,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy() -> SystemModel {
        let mut b = SystemBuilder::new("toy");
        b.option("knob", &[0.0, 1.0, 2.0], OptionKind::Software)
            .option("switch", &[0.0, 1.0], OptionKind::Kernel)
            .event("load", 1000.0, 0.0)
            .objective("latency", 10.0, 0.0);
        b.bias("load", 0.1)
            .term("load", 1.0, &["knob"], EnvExp::none())
            .term("load", 0.5, &["knob", "switch"], EnvExp::microarch(1.0))
            .bias("latency", 0.2)
            .term("latency", 2.0, &["load"], EnvExp::cpu_bound());
        b.build()
    }

    #[test]
    fn structure_is_recovered() {
        let m = toy();
        let g = m.true_admg();
        // knob → load, switch → load, load → latency.
        assert!(g.directed_edges().contains(&(0, 2)));
        assert!(g.directed_edges().contains(&(1, 2)));
        assert!(g.directed_edges().contains(&(2, 3)));
        assert_eq!(g.directed_edges().len(), 3);
    }

    #[test]
    fn evaluation_matches_hand_computation() {
        let m = toy();
        let env = EnvParams::neutral();
        // knob = 2.0 → normalized 1.0; switch = 1.0 → normalized 1.0.
        let c = Config {
            values: vec![2.0, 1.0],
        };
        let (internal, raw) = m.evaluate(&c, &env, None);
        // load = 0.1 + 1.0·1.0 + 0.5·1.0·1.0 = 1.6 → raw 1600.
        assert!((internal[2] - 1.6).abs() < 1e-12);
        assert!((raw[2] - 1600.0).abs() < 1e-9);
        // latency = 0.2 + 2.0·1.6 = 3.4 → raw 34.
        assert!((raw[3] - 34.0).abs() < 1e-9);
    }

    #[test]
    fn environment_modulates_coefficients() {
        let m = toy();
        let c = Config {
            values: vec![2.0, 1.0],
        };
        let fast = EnvParams {
            cpu: 2.0,
            ..EnvParams::neutral()
        };
        let slow = EnvParams {
            cpu: 0.5,
            ..EnvParams::neutral()
        };
        let l_fast = m.true_objectives(&c, &fast)[0];
        let l_slow = m.true_objectives(&c, &slow)[0];
        // cpu_bound: latency ∝ 1/cpu on the load term.
        assert!(l_fast < l_slow);
        // Microarch factor scales only the interaction term.
        let micro = EnvParams {
            microarch: 2.0,
            ..EnvParams::neutral()
        };
        let (i_neutral, _) = m.evaluate(&c, &EnvParams::neutral(), None);
        let (i_micro, _) = m.evaluate(&c, &micro, None);
        assert!((i_micro[2] - i_neutral[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let m = toy();
        let env = EnvParams::neutral();
        let c = Config {
            values: vec![1.0, 0.0],
        };
        let mut m2 = toy();
        m2.nodes[0].noise_sd = 0.1;
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let (a, _) = m2.evaluate(&c, &env, Some(&mut r1));
        let (b, _) = m2.evaluate(&c, &env, Some(&mut r2));
        assert_eq!(a, b);
        let (clean, _) = m2.evaluate(&c, &env, None);
        assert!((a[2] - clean[2]).abs() > 0.0);
        let _ = m;
    }

    #[test]
    fn positive_transform_clamps() {
        assert_eq!(Transform::Positive.apply(2.0), 2.0);
        assert!(Transform::Positive.apply(-1.0) > -0.1);
    }

    #[test]
    #[should_panic(expected = "unknown node name")]
    fn unknown_parent_panics() {
        let mut b = SystemBuilder::new("bad");
        b.option("a", &[0.0, 1.0], OptionKind::Software)
            .event("e", 1.0, 0.0);
        b.term("e", 1.0, &["nope"], EnvExp::none());
    }

    #[test]
    fn latent_confounder_reports_bidirected_and_stays_noiseless_invisible() {
        let mut b = SystemBuilder::new("conf");
        b.option("k", &[0.0, 1.0], OptionKind::Software)
            .event("e1", 1.0, 0.01)
            .event("e2", 1.0, 0.01)
            .objective("obj", 1.0, 0.0);
        b.bias("e1", 1.0)
            .bias("e2", 1.0)
            .bias("obj", 0.5)
            .term("obj", 1.0, &["e1"], EnvExp::none())
            .latent("u", &[("e1", 0.5), ("e2", 0.5)]);
        let m = b.build();
        // Ground truth: e1 ↔ e2 (nodes 1 and 2).
        assert_eq!(m.true_admg().bidirected_edges(), &[(1, 2)]);
        // The noiseless evaluation never sees the latent.
        let c = Config { values: vec![0.0] };
        let (clean, _) = m.evaluate(&c, &EnvParams::neutral(), None);
        assert!((clean[1] - 1.0).abs() < 1e-12);
        assert!((clean[2] - 1.0).abs() < 1e-12);
        // Noisy draws of the two targets co-move strongly: the shared
        // latent (σ·w = 0.5) dominates the private noise (σ = 0.01).
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for seed in 0..400 {
            let mut r = StdRng::seed_from_u64(seed);
            let (i, _) = m.evaluate(&c, &EnvParams::neutral(), Some(&mut r));
            xs.push(i[1]);
            ys.push(i[2]);
        }
        let r = unicorn_stats::pearson(&xs, &ys);
        assert!(r > 0.9, "confounded events should correlate, r = {r}");
    }

    #[test]
    fn latent_free_models_keep_their_noise_stream() {
        // The latent code path must not consume RNG draws when no latents
        // are declared — the paper systems' measurements stay bit-stable.
        let mut m = toy();
        m.nodes[0].noise_sd = 0.1;
        let c = Config {
            values: vec![1.0, 0.0],
        };
        let mut r = StdRng::seed_from_u64(11);
        let (a, _) = m.evaluate(&c, &EnvParams::neutral(), Some(&mut r));
        let mut r2 = StdRng::seed_from_u64(11);
        let z = standard_normal(&mut r2);
        // First node's noise must be the first draw of the stream.
        let clean = m.evaluate(&c, &EnvParams::neutral(), None).0[2];
        assert!((a[2] - (clean + 0.1 * z)).abs() < 1e-12);
    }

    #[test]
    fn tiers_cover_all_nodes() {
        let m = toy();
        let t = m.tiers();
        assert_eq!(t.len(), 4);
        assert_eq!(t.of_kind(VarKind::ConfigOption).len(), 2);
        assert_eq!(t.of_kind(VarKind::SystemEvent).len(), 1);
        assert_eq!(t.of_kind(VarKind::Objective).len(), 1);
    }
}
