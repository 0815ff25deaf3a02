//! The scenario registry and the synthetic system-family generator — the
//! *scenario axis* of the reproduction: one namespace enumerating every
//! system × environment the pipeline is evaluated on, from the paper's
//! real subject systems through the Table 3 scalability variants to
//! parameterized synthetic families whose ground-truth structure is
//! planted by construction.
//!
//! # Why
//!
//! Unicorn's claims are evaluated across a *matrix* of configurable
//! systems and environment shifts, and the interesting causal behavior
//! (Javidian et al., arXiv:1902.10119) lives in how structure recovery
//! varies with option count, interaction depth, and confounding. A
//! [`ScenarioSpec`] dials exactly those axes — option count, domain
//! sizes, interaction depth, planted latent confounders, noise level,
//! objective count, and an optional environment shift for transfer — and
//! expands *deterministically* into a [`Simulator`] whose exact
//! ground-truth [`Admg`] (including bidirected edges for the planted
//! latents) is attached for scoring.
//!
//! # How to add a system or scenario
//!
//! Every harness that iterates a [`ScenarioRegistry`] (the `suite` bench,
//! the Table 1/3 binaries, the examples) picks up a new entry
//! automatically — adding a scenario is one registry line:
//!
//! * **A new synthetic family point** — add
//!   `reg.add(Scenario::synthetic(ScenarioSpec::family(60, Interaction::Dense, 2, 1)))`
//!   to [`ScenarioRegistry::standard`] (or call it on your own registry).
//!   Tweak individual [`ScenarioSpec`] fields for custom domain sizes,
//!   noise, or an [`EnvShift`]; names derive from the spec's
//!   options/interaction/objectives/confounders, so points differing
//!   only in other fields need `Scenario::with_name`.
//! * **A new real system** — implement its ground-truth model with
//!   [`SystemBuilder`] under
//!   [`crate::systems`], add a [`SubjectSystem`] variant, and register it
//!   with `reg.add(Scenario::real(SubjectSystem::New, Hardware::Tx2))`.
//! * **A transfer scenario** — attach a shift to any entry:
//!   `Scenario::real(..).with_shift(EnvShift::to_hardware(Hardware::Xavier))`.
//!   Harnesses that exercise Stage-transfer call
//!   [`Scenario::target_simulator`] and skip entries without a shift.
//!
//! Scenario expansion is a pure function of the spec: the same
//! [`ScenarioSpec`] always yields the same option grid, the same
//! mechanisms (bit-identical coefficients), and the same planted graph,
//! regardless of thread count or pool — asserted by
//! `tests/scenario_generator.rs`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use unicorn_graph::Admg;

use crate::config::OptionKind;
use crate::environment::{Environment, Hardware, Workload};
use crate::gtm::{EnvExp, SystemBuilder, SystemModel};
use crate::measurement::Simulator;
use crate::scalability::{deepstream_variant, sqlite_variant};
use crate::systems::SubjectSystem;

/// Interaction depth of a synthetic family: how densely options feed
/// events and how often multi-option interaction terms appear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interaction {
    /// 1–2 option parents per event, rare interaction terms — the sparse
    /// regime where the causal graph stays recoverable at depth 1.
    Sparse,
    /// 2–4 option parents per event, frequent pairwise interaction terms
    /// (microarch-modulated, so coefficients drift across platforms).
    Dense,
}

impl Interaction {
    /// Registry-name fragment.
    pub fn label(&self) -> &'static str {
        match self {
            Interaction::Sparse => "sparse",
            Interaction::Dense => "dense",
        }
    }
}

/// An environment shift attached to a scenario for transfer experiments:
/// the target environment differs from the base by hardware platform,
/// workload scale, or both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvShift {
    /// Target hardware (`None` keeps the base platform).
    pub hardware: Option<Hardware>,
    /// Target workload scale (`None` keeps the base workload).
    pub workload_scale: Option<f64>,
}

impl EnvShift {
    /// Hardware-only shift (the Fig 16 regime).
    fn to_hardware(hw: Hardware) -> Self {
        Self {
            hardware: Some(hw),
            workload_scale: None,
        }
    }

    /// Workload-only shift (the Fig 17 regime).
    pub fn to_workload(scale: f64) -> Self {
        Self {
            hardware: None,
            workload_scale: Some(scale),
        }
    }

    /// The shifted environment.
    pub fn apply(&self, base: &Environment) -> Environment {
        Environment {
            hardware: self.hardware.unwrap_or(base.hardware),
            workload: Workload::scaled(
                &base.workload.name,
                self.workload_scale.unwrap_or(base.workload.scale),
            ),
        }
    }
}

/// A parameterized synthetic system family point: expands
/// deterministically into a [`SystemModel`] with its ground-truth graph
/// planted by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Number of configuration options.
    pub n_options: usize,
    /// Number of system events (tier 2).
    pub n_events: usize,
    /// Option-domain sizes, cycled over the options (each ≥ 2).
    pub domain_sizes: Vec<usize>,
    /// Interaction depth.
    pub interaction: Interaction,
    /// Planted latent confounders: hidden drivers each correlating one
    /// pair of events (bidirected edges in the ground truth).
    pub n_confounders: usize,
    /// Gaussian noise σ on event mechanisms (objectives use σ/2).
    pub noise: f64,
    /// Number of performance objectives (1–3).
    pub n_objectives: usize,
    /// Optional environment shift for transfer experiments.
    pub shift: Option<EnvShift>,
    /// Seed of the structure RNG: distinct seeds give distinct family
    /// members with the same difficulty parameters.
    pub structure_seed: u64,
}

impl ScenarioSpec {
    /// The standard family point used by [`ScenarioRegistry::standard`]:
    /// events scale with options, mixed binary/ternary/5-ary domains,
    /// low noise.
    pub fn family(
        n_options: usize,
        interaction: Interaction,
        n_objectives: usize,
        n_confounders: usize,
    ) -> Self {
        Self {
            n_options,
            n_events: (n_options / 2).clamp(4, 24),
            domain_sizes: vec![2, 3, 5],
            interaction,
            n_confounders,
            noise: 0.05,
            n_objectives,
            shift: None,
            structure_seed: 0xC0FFEE,
        }
    }

    /// Canonical registry name, e.g. `synth-opt30-dense-2obj` (with a
    /// `-conf{n}` suffix when latents are planted). Family points that
    /// differ only in noise, domain sizes, or structure seed derive the
    /// same name — register those under `Scenario::with_name`.
    pub fn name(&self) -> String {
        let mut name = format!(
            "synth-opt{}-{}-{}obj",
            self.n_options,
            self.interaction.label(),
            self.n_objectives
        );
        if self.n_confounders > 0 {
            name.push_str(&format!("-conf{}", self.n_confounders));
        }
        name
    }

    /// Structural distance to another spec — the fleet layer's
    /// nearest-neighbor metric for cross-tenant warm starts. Zero iff the
    /// two specs expand to the identical system (every structural field
    /// equal); counts one unit per categorical mismatch (interaction,
    /// domain cycle, structure seed, objective/confounder counts) plus
    /// normalized relative differences of the numeric fields. Symmetric.
    pub fn distance(&self, other: &ScenarioSpec) -> f64 {
        fn rel(a: f64, b: f64) -> f64 {
            let m = a.abs().max(b.abs());
            if m == 0.0 {
                0.0
            } else {
                (a - b).abs() / m
            }
        }
        let unit = |same: bool| if same { 0.0 } else { 1.0 };
        rel(self.n_options as f64, other.n_options as f64)
            + rel(self.n_events as f64, other.n_events as f64)
            + rel(self.noise, other.noise)
            + unit(self.interaction == other.interaction)
            + unit(self.domain_sizes == other.domain_sizes)
            + unit(self.n_objectives == other.n_objectives)
            + unit(self.n_confounders == other.n_confounders)
            + unit(self.structure_seed == other.structure_seed)
    }

    /// The structure RNG: a pure function of every structural field, so
    /// two equal specs expand to bit-identical models.
    fn structure_rng(&self) -> StdRng {
        let mut h: u64 = 0xcbf29ce484222325 ^ self.structure_seed;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(self.n_options as u64);
        eat(self.n_events as u64);
        for &d in &self.domain_sizes {
            eat(d as u64);
        }
        eat(match self.interaction {
            Interaction::Sparse => 1,
            Interaction::Dense => 2,
        });
        eat(self.n_confounders as u64);
        eat(self.noise.to_bits());
        eat(self.n_objectives as u64);
        StdRng::seed_from_u64(h)
    }

    /// Expands the spec into its ground-truth system model. Deterministic:
    /// structure, coefficients, and planted latents are a pure function of
    /// the spec.
    pub fn build(&self) -> SystemModel {
        assert!(self.n_options >= 2, "need at least 2 options");
        assert!(self.n_events >= 2, "need at least 2 events");
        assert!(
            (1..=3).contains(&self.n_objectives),
            "1–3 objectives supported"
        );
        assert!(!self.domain_sizes.is_empty(), "empty domain-size cycle");
        let mut rng = self.structure_rng();
        let mut b = SystemBuilder::new(&self.name());

        // Options: grids 0..k with the domain sizes cycled, kinds cycled
        // through the three tiers of the paper's configuration stack.
        let kinds = [
            OptionKind::Software,
            OptionKind::Kernel,
            OptionKind::Hardware,
        ];
        for i in 0..self.n_options {
            let k = self.domain_sizes[i % self.domain_sizes.len()].max(2);
            let values: Vec<f64> = (0..k).map(|v| v as f64).collect();
            b.option(&format!("opt_{i:03}"), &values, kinds[i % kinds.len()]);
        }

        // Declare all events, then all objectives (builder tier order).
        for e in 0..self.n_events {
            b.event(&format!("ev_{e:02}"), 1.0e3, self.noise);
        }
        const OBJECTIVE_NAMES: [&str; 3] = ["latency", "energy", "heat"];
        const OBJECTIVE_SCALES: [f64; 3] = [10.0, 50.0, 15.0];
        for j in 0..self.n_objectives {
            b.objective(OBJECTIVE_NAMES[j], OBJECTIVE_SCALES[j], self.noise * 0.5);
        }

        let (min_par, max_par, p_interact, p_event_parent) = match self.interaction {
            Interaction::Sparse => (1usize, 2usize, 0.2, 0.3),
            Interaction::Dense => (2, 4, 0.7, 0.5),
        };
        let env_profiles = [
            EnvExp::none(),
            EnvExp::cpu_bound(),
            EnvExp::mem_bound(),
            EnvExp::microarch(0.8),
        ];

        // Event mechanisms: each event reads a few random options (strong
        // main effects), sometimes an interaction of two of them
        // (microarch-modulated, the coefficient-drift carrier), sometimes
        // an earlier event (tier-2 chains).
        let ev_name = |e: usize| format!("ev_{e:02}");
        for e in 0..self.n_events {
            let name = ev_name(e);
            b.bias(&name, 0.2);
            let n_par = rng.gen_range(min_par..max_par + 1).min(self.n_options);
            let parents = pick_distinct(&mut rng, self.n_options, n_par);
            for &p in &parents {
                let mut coeff = 0.35 + 0.65 * rng.gen::<f64>();
                if rng.gen_bool(0.2) {
                    coeff *= -0.5;
                }
                let env = env_profiles[rng.gen_range(0..env_profiles.len())];
                b.term(&name, coeff, &[&format!("opt_{p:03}")], env);
            }
            if parents.len() >= 2 && rng.gen_bool(p_interact) {
                let coeff = 0.3 + 0.3 * rng.gen::<f64>();
                b.term(
                    &name,
                    coeff,
                    &[
                        &format!("opt_{:03}", parents[0]),
                        &format!("opt_{:03}", parents[1]),
                    ],
                    EnvExp::microarch(1.0),
                );
            }
            if e > 0 && rng.gen_bool(p_event_parent) {
                let src = rng.gen_range(0..e);
                let coeff = 0.2 + 0.3 * rng.gen::<f64>();
                b.term(&name, coeff, &[&ev_name(src)], EnvExp::none());
            }
        }

        // Objective mechanisms: each objective aggregates a few events
        // (workload- or energy-modulated) plus, half the time, one direct
        // option term.
        for name in OBJECTIVE_NAMES.iter().take(self.n_objectives).copied() {
            b.bias(name, 0.3);
            let n_par = rng.gen_range(2..self.n_events.min(4) + 1);
            let parents = pick_distinct(&mut rng, self.n_events, n_par);
            // Objectives are platform-sensitive by construction (latency
            // is CPU-bound, energy/heat read the platform's energy and
            // thermal factors), so hardware shifts always matter.
            let env = match name {
                "energy" => EnvExp::energy_term(),
                "heat" => EnvExp::thermal_term(),
                _ => EnvExp {
                    cpu: -0.3,
                    workload: 1.0,
                    ..EnvExp::none()
                },
            };
            for &p in &parents {
                let coeff = 0.3 + 0.5 * rng.gen::<f64>();
                b.term(name, coeff, &[&ev_name(p)], env);
            }
            if rng.gen_bool(0.5) {
                let opt = rng.gen_range(0..self.n_options);
                let coeff = 0.2 + 0.2 * rng.gen::<f64>();
                b.term(name, coeff, &[&format!("opt_{opt:03}")], EnvExp::none());
            }
        }

        // Planted latent confounders: hidden drivers over event pairs,
        // strong relative to the mechanism noise so confounding is a real
        // phenomenon, not a rounding error.
        for c in 0..self.n_confounders {
            let pair = pick_distinct(&mut rng, self.n_events, 2);
            let w_a = 0.3 + 0.3 * rng.gen::<f64>();
            let w_b = 0.3 + 0.3 * rng.gen::<f64>();
            b.latent(
                &format!("latent_{c}"),
                &[(&ev_name(pair[0]), w_a), (&ev_name(pair[1]), w_b)],
            );
        }

        b.build()
    }
}

/// `k` distinct indices drawn uniformly from `0..n`, in shuffled order.
fn pick_distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    all.shuffle(rng);
    all.truncate(k.min(n));
    all
}

/// What a registry entry expands to.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// One of the paper's real subject systems (Table 1).
    Real(SubjectSystem),
    /// A Table 3 scalability variant of SQLite.
    SqliteVariant {
        /// Option count (34 baseline, 242 full).
        n_options: usize,
        /// Event count (19 baseline, 288 with tracepoints).
        n_events: usize,
    },
    /// A Table 3 scalability variant of Deepstream.
    DeepstreamVariant {
        /// Event count (20 baseline, 288 with tracepoints).
        n_events: usize,
    },
    /// A synthetic family point.
    Synthetic(ScenarioSpec),
}

/// One registry entry: a system, its base deployment environment, the
/// observational sample budget suite-scale harnesses grant it, and an
/// optional shift for transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique registry name (e.g. `"x264"`, `"synth-opt30-dense-1obj"`).
    pub name: String,
    /// What the entry expands to.
    pub kind: ScenarioKind,
    /// Base hardware platform.
    pub hardware: Hardware,
    /// Base workload scale (1.0 = the system's reference workload).
    pub workload_scale: f64,
    /// Environment shift for transfer experiments (`None` = no transfer
    /// stage for this scenario).
    pub shift: Option<EnvShift>,
    /// Observational samples suite-scale harnesses draw for Stage I.
    pub suite_samples: usize,
}

impl Scenario {
    /// A real subject system on a platform.
    pub fn real(system: SubjectSystem, hardware: Hardware) -> Self {
        Self {
            name: system.name().to_lowercase(),
            kind: ScenarioKind::Real(system),
            hardware,
            workload_scale: 1.0,
            shift: None,
            suite_samples: 150,
        }
    }

    /// A synthetic family point (name, shift taken from the spec).
    pub fn synthetic(spec: ScenarioSpec) -> Self {
        Self {
            name: spec.name(),
            shift: spec.shift,
            hardware: Hardware::Tx2,
            workload_scale: 1.0,
            suite_samples: 120 + spec.n_options.min(60),
            kind: ScenarioKind::Synthetic(spec),
        }
    }

    /// A Table 3 SQLite scalability variant.
    pub fn sqlite_variant(n_options: usize, n_events: usize) -> Self {
        Self {
            name: format!("sqlite-{n_options}opt-{n_events}ev"),
            kind: ScenarioKind::SqliteVariant {
                n_options,
                n_events,
            },
            hardware: Hardware::Xavier,
            workload_scale: 1.0,
            shift: None,
            suite_samples: 250,
        }
    }

    /// A Table 3 Deepstream scalability variant.
    pub fn deepstream_variant(n_events: usize) -> Self {
        Self {
            name: format!("deepstream-{n_events}ev"),
            kind: ScenarioKind::DeepstreamVariant { n_events },
            hardware: Hardware::Xavier,
            workload_scale: 1.0,
            shift: None,
            suite_samples: 250,
        }
    }

    /// Attaches an environment shift (enables the transfer stage).
    fn with_shift(mut self, shift: EnvShift) -> Self {
        self.shift = Some(shift);
        self
    }

    /// Overrides the suite-scale sample budget.
    pub fn with_samples(mut self, n: usize) -> Self {
        self.suite_samples = n;
        self
    }

    /// Overrides the registry name — required when registering several
    /// family points whose derived names collide (specs differing only in
    /// noise, domain sizes, or structure seed).
    fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// The subject system, when the entry is a real one.
    pub fn subject(&self) -> Option<SubjectSystem> {
        match self.kind {
            ScenarioKind::Real(s) => Some(s),
            _ => None,
        }
    }

    /// Expands the entry into its ground-truth system model.
    pub fn model(&self) -> SystemModel {
        match &self.kind {
            ScenarioKind::Real(s) => s.build(),
            ScenarioKind::SqliteVariant {
                n_options,
                n_events,
            } => sqlite_variant(*n_options, *n_events),
            ScenarioKind::DeepstreamVariant { n_events } => deepstream_variant(*n_events),
            ScenarioKind::Synthetic(spec) => spec.build(),
        }
    }

    /// The base deployment environment.
    pub fn environment(&self) -> Environment {
        Environment {
            hardware: self.hardware,
            workload: Workload::scaled("default", self.workload_scale),
        }
    }

    /// The shifted (transfer-target) environment, when a shift is set.
    fn target_environment(&self) -> Option<Environment> {
        self.shift.as_ref().map(|s| s.apply(&self.environment()))
    }

    /// A measurement harness over the base environment.
    pub fn simulator(&self, seed: u64) -> Simulator {
        Simulator::new(self.model(), self.environment(), seed)
    }

    /// A measurement harness over the shifted environment.
    pub fn target_simulator(&self, seed: u64) -> Option<Simulator> {
        self.target_environment()
            .map(|env| Simulator::new(self.model(), env, seed))
    }

    /// The planted / hand-coded ground-truth graph (bidirected edges for
    /// latent confounders), against which discovery output is scored.
    pub fn ground_truth(&self) -> Admg {
        self.model().true_admg()
    }
}

/// The scenario registry: a named, ordered collection every harness
/// (suite bench, table binaries, examples) iterates. Adding an entry here
/// is the *only* step needed to put a new system in front of the whole
/// pipeline.
#[derive(Debug, Clone, Default)]
pub struct ScenarioRegistry {
    entries: Vec<Scenario>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — registry names are identifiers.
    pub fn add(&mut self, scenario: Scenario) -> &mut Self {
        assert!(
            self.get(&scenario.name).is_none(),
            "duplicate scenario name: {}",
            scenario.name
        );
        self.entries.push(scenario);
        self
    }

    /// The standard evaluation matrix: every real subject system of
    /// Table 1 (with hardware/workload shifts on the transfer carriers)
    /// plus the synthetic family points `opt{10,30,100}` ×
    /// sparse/dense × {1,2} objectives.
    pub fn standard() -> Self {
        let mut reg = Self::new();
        reg.add(Scenario::real(SubjectSystem::Deepstream, Hardware::Xavier))
            .add(
                Scenario::real(SubjectSystem::Xception, Hardware::Xavier)
                    .with_shift(EnvShift::to_hardware(Hardware::Tx2)),
            )
            .add(Scenario::real(SubjectSystem::Bert, Hardware::Tx2))
            .add(Scenario::real(SubjectSystem::Deepspeech, Hardware::Tx2))
            .add(
                Scenario::real(SubjectSystem::X264, Hardware::Tx2)
                    .with_shift(EnvShift::to_workload(2.0)),
            )
            .add(Scenario::real(SubjectSystem::Sqlite, Hardware::Xavier))
            .add(Scenario::synthetic(ScenarioSpec::family(
                10,
                Interaction::Sparse,
                1,
                0,
            )))
            .add(Scenario::synthetic(ScenarioSpec::family(
                10,
                Interaction::Dense,
                2,
                1,
            )))
            .add(Scenario::synthetic(ScenarioSpec {
                shift: Some(EnvShift::to_hardware(Hardware::Tx1)),
                ..ScenarioSpec::family(30, Interaction::Sparse, 2, 1)
            }))
            .add(Scenario::synthetic(ScenarioSpec::family(
                30,
                Interaction::Dense,
                1,
                2,
            )))
            .add(Scenario::synthetic(ScenarioSpec::family(
                100,
                Interaction::Sparse,
                1,
                2,
            )));
        reg
    }

    /// The drift-soak scenario: x264 on TX2 with a 2.5× workload surge
    /// as the mid-stream environment shift — the regime the streaming
    /// ingestion drift detectors are soaked against (`benches/soak.rs`).
    /// Deliberately its own registry, not a [`Self::standard`] entry:
    /// the suite bench iterates `standard()`, and its baseline pins that
    /// scenario set.
    pub fn drift_soak() -> Self {
        let mut reg = Self::new();
        reg.add(
            Scenario::real(SubjectSystem::X264, Hardware::Tx2)
                .with_shift(EnvShift::to_workload(2.5))
                .with_name("x264-drift-soak"),
        );
        reg
    }

    /// Tenants per replica group of [`Self::synthetic_on_demand`]:
    /// consecutive indices within one group expand to the identical spec,
    /// modeling the fleet's real shape (many tenants running the same
    /// software on the same platform) — the regime where cross-tenant
    /// warm starts pay off.
    pub const ON_DEMAND_REPLICAS: usize = 4;

    /// The `i`-th on-demand synthetic tenant spec — a pure function of the
    /// index, so a fleet bench or soak test can enumerate thousands of
    /// tenants lazily without materializing a registry. Indices are
    /// partitioned into replica groups of [`Self::ON_DEMAND_REPLICAS`]:
    /// within a group the specs are equal ([`ScenarioSpec::distance`] 0),
    /// across groups the option count, interaction depth, objective and
    /// confounder counts, and structure seed all cycle, so neighboring
    /// groups are structurally distinct family members. Specs are kept
    /// small (6–16 options) so a thousand-tenant admission sweep stays
    /// interactive.
    pub fn synthetic_on_demand(i: usize) -> ScenarioSpec {
        let g = i / Self::ON_DEMAND_REPLICAS;
        let n_options = 6 + 2 * (g % 6);
        let interaction = if g.is_multiple_of(2) {
            Interaction::Sparse
        } else {
            Interaction::Dense
        };
        let n_objectives = 1 + g % 3;
        let n_confounders = g % 3;
        let mut spec = ScenarioSpec::family(n_options, interaction, n_objectives, n_confounders);
        spec.structure_seed = 0xF1EE7 ^ ((g as u64) << 8);
        spec
    }

    /// The Table 3 scalability matrix (SQLite 34→242 options / 19→288
    /// events, Deepstream 20→288 events, all on Xavier).
    pub fn scalability() -> Self {
        let mut reg = Self::new();
        reg.add(Scenario::sqlite_variant(34, 19))
            .add(Scenario::sqlite_variant(242, 19))
            .add(Scenario::sqlite_variant(242, 288))
            .add(Scenario::deepstream_variant(20))
            .add(Scenario::deepstream_variant(288));
        reg
    }

    /// Entry by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.entries.iter().find(|s| s.name == name)
    }

    /// Iterates the entries in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.entries.iter()
    }

    /// Entry names in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|s| s.name.as_str()).collect()
    }

    /// The real subject systems among the entries, in registration order.
    pub fn real_systems(&self) -> Vec<SubjectSystem> {
        self.entries.iter().filter_map(Scenario::subject).collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the registry has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<'a> IntoIterator for &'a ScenarioRegistry {
    type Item = &'a Scenario;
    type IntoIter = std::slice::Iter<'a, Scenario>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::EnvParams;

    #[test]
    fn spec_expansion_is_deterministic_and_spec_sensitive() {
        let spec = ScenarioSpec::family(12, Interaction::Dense, 2, 1);
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.names(), b.names());
        assert_eq!(
            a.true_admg().directed_edges(),
            b.true_admg().directed_edges()
        );
        assert_eq!(format!("{:?}", a.nodes), format!("{:?}", b.nodes));
        assert_eq!(format!("{:?}", a.latents), format!("{:?}", b.latents));
        // A different seed is a different family member.
        let other = ScenarioSpec {
            structure_seed: 1,
            ..spec
        }
        .build();
        assert_ne!(
            format!("{:?}", a.nodes),
            format!("{:?}", other.nodes),
            "structure seed must matter"
        );
    }

    #[test]
    fn generated_models_have_the_requested_shape() {
        let spec = ScenarioSpec::family(30, Interaction::Sparse, 2, 2);
        let m = spec.build();
        assert_eq!(m.n_options(), 30);
        assert_eq!(m.n_events(), 15);
        assert_eq!(m.n_objectives(), 2);
        assert_eq!(m.latents.len(), 2);
        // Domain sizes follow the cycle.
        assert_eq!(m.space.option(0).values.len(), 2);
        assert_eq!(m.space.option(1).values.len(), 3);
        assert_eq!(m.space.option(2).values.len(), 5);
        // Every event and objective has at least one mechanism term, and
        // the planted latents appear as bidirected edges.
        for node in &m.nodes {
            assert!(!node.terms.is_empty());
        }
        assert!(!m.true_admg().bidirected_edges().is_empty());
        // Objectives have causes.
        let g = m.true_admg();
        for j in 0..m.n_objectives() {
            assert!(!g.parents(m.objective_node(j)).is_empty());
        }
    }

    #[test]
    fn generated_models_evaluate_and_shift_matters() {
        let spec = ScenarioSpec {
            shift: Some(EnvShift::to_hardware(Hardware::Tx1)),
            ..ScenarioSpec::family(10, Interaction::Dense, 1, 1)
        };
        let sc = Scenario::synthetic(spec);
        let sim = sc.simulator(7);
        let c = sim.model.space.default_config();
        let base = sim.true_objectives(&c);
        assert!(base.iter().all(|v| v.is_finite()));
        let target = sc.target_simulator(7).expect("shift set");
        let shifted = target.true_objectives(&c);
        assert_ne!(base, shifted, "an environment shift must move objectives");
        // Same model either side of the shift.
        assert_eq!(sim.model.names(), target.model.names());
    }

    #[test]
    fn standard_registry_covers_reals_and_synthetics() {
        let reg = ScenarioRegistry::standard();
        assert!(reg.len() >= 8, "suite needs ≥ 8 scenarios");
        // All six Table 1 systems present.
        assert_eq!(reg.real_systems().len(), SubjectSystem::all().len());
        // At least three synthetic family points.
        let synth = reg
            .iter()
            .filter(|s| matches!(s.kind, ScenarioKind::Synthetic(_)))
            .count();
        assert!(synth >= 3);
        // At least one transfer carrier.
        assert!(reg.iter().any(|s| s.shift.is_some()));
        // Names unique (add() panics otherwise) and lookups work.
        assert!(reg.get("x264").is_some());
        assert!(reg.get("synth-opt10-sparse-1obj").is_some());
        // Every entry expands to a model that evaluates.
        for sc in &reg {
            let m = sc.model();
            let env = sc.environment().params();
            let (_, raw) = m.evaluate(&m.space.default_config(), &env, None);
            assert_eq!(raw.len(), m.n_nodes(), "{}", sc.name);
        }
    }

    #[test]
    fn scalability_registry_matches_table3() {
        let reg = ScenarioRegistry::scalability();
        assert_eq!(reg.len(), 5);
        let big = reg.get("sqlite-242opt-288ev").expect("entry");
        let m = big.model();
        assert_eq!(m.n_options(), 242);
        assert_eq!(m.n_events(), 288);
        assert_eq!(
            reg.get("deepstream-288ev")
                .expect("entry")
                .model()
                .n_events(),
            288
        );
    }

    #[test]
    fn spec_distance_is_zero_iff_structurally_equal() {
        let a = ScenarioSpec::family(12, Interaction::Dense, 2, 1);
        assert_eq!(a.distance(&a), 0.0);
        assert_eq!(a.distance(&a.clone()), 0.0);
        // Each structural field moves the distance off zero, symmetrically.
        let b = ScenarioSpec {
            n_options: 14,
            ..a.clone()
        };
        assert!(a.distance(&b) > 0.0);
        assert_eq!(a.distance(&b), b.distance(&a));
        let c = ScenarioSpec {
            structure_seed: a.structure_seed ^ 1,
            ..a.clone()
        };
        assert!(a.distance(&c) > 0.0);
        // Nearer family members score lower than farther ones.
        let near = ScenarioSpec {
            n_options: 13,
            ..a.clone()
        };
        let far = ScenarioSpec {
            n_options: 24,
            ..a.clone()
        };
        assert!(a.distance(&near) < a.distance(&far));
    }

    #[test]
    fn on_demand_specs_are_pure_and_replica_grouped() {
        const R: usize = ScenarioRegistry::ON_DEMAND_REPLICAS;
        // Pure function of the index.
        assert_eq!(
            ScenarioRegistry::synthetic_on_demand(17),
            ScenarioRegistry::synthetic_on_demand(17)
        );
        // Replicas within a group share the identical spec (distance 0);
        // adjacent groups are structurally distinct.
        for g in 0..6 {
            let head = ScenarioRegistry::synthetic_on_demand(g * R);
            for r in 1..R {
                let peer = ScenarioRegistry::synthetic_on_demand(g * R + r);
                assert_eq!(head, peer);
                assert_eq!(head.distance(&peer), 0.0);
            }
            let next = ScenarioRegistry::synthetic_on_demand((g + 1) * R);
            assert!(head.distance(&next) > 0.0, "group {g} must differ");
        }
        // Every on-demand spec expands to a valid, small model.
        for i in [0, 5, 123, 997] {
            let spec = ScenarioRegistry::synthetic_on_demand(i);
            let m = spec.build();
            assert!((6..=16).contains(&m.n_options()), "index {i}");
            assert!(m.n_events() >= 4);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name")]
    fn duplicate_names_panic() {
        let mut reg = ScenarioRegistry::new();
        reg.add(Scenario::real(SubjectSystem::X264, Hardware::Tx2))
            .add(Scenario::real(SubjectSystem::X264, Hardware::Tx1));
    }

    #[test]
    fn env_shift_composes_hardware_and_workload() {
        let base = Environment::on(Hardware::Tx2);
        let hw = EnvShift::to_hardware(Hardware::Xavier).apply(&base);
        assert_eq!(hw.hardware, Hardware::Xavier);
        assert_eq!(hw.workload.scale, 1.0);
        let wl = EnvShift::to_workload(2.0).apply(&base);
        assert_eq!(wl.hardware, Hardware::Tx2);
        assert_eq!(wl.workload.scale, 2.0);
        let both = EnvShift {
            hardware: Some(Hardware::Tx1),
            workload_scale: Some(0.5),
        }
        .apply(&base);
        assert_eq!(both.hardware, Hardware::Tx1);
        assert_eq!(both.workload.scale, 0.5);
        let _ = EnvParams::neutral();
    }
}
