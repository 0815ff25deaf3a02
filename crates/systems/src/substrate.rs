//! The shared OS/hardware substrate: the 22 Linux kernel options (appendix
//! Table 8), the 4 hardware options (Table 9) and the 19 `perf` system
//! events (Table 10) common to every subject system, together with their
//! ground-truth mechanisms.
//!
//! Per-system definitions call [`add_stack_options`] after their software
//! options, then [`add_base_events`], then top the events up with
//! software-specific terms (e.g. `Bitrate → Cache References` for x264)
//! and finally attach objectives via [`add_standard_objectives`].

use crate::config::OptionKind;
use crate::gtm::{EnvExp, SystemBuilder};

/// Adds the 22 kernel options (Table 8) and 4 hardware options (Table 9).
pub fn add_stack_options(b: &mut SystemBuilder) {
    // Kernel options — values straight from appendix Table 8. Defaults
    // index into the sane middle-of-the-road settings.
    b.option_with_default(
        "vm.vfs_cache_pressure",
        &[1.0, 100.0, 500.0],
        OptionKind::Kernel,
        1,
    );
    b.option_with_default("vm.swappiness", &[10.0, 60.0, 90.0], OptionKind::Kernel, 1);
    b.option("vm.dirty_bytes", &[30.0, 60.0], OptionKind::Kernel);
    b.option(
        "vm.dirty_background_ratio",
        &[10.0, 80.0],
        OptionKind::Kernel,
    );
    b.option(
        "vm.dirty_background_bytes",
        &[30.0, 60.0],
        OptionKind::Kernel,
    );
    b.option("vm.dirty_ratio", &[5.0, 50.0], OptionKind::Kernel);
    b.option("vm.nr_hugepages", &[0.0, 1.0, 2.0], OptionKind::Kernel);
    b.option("vm.overcommit_ratio", &[50.0, 80.0], OptionKind::Kernel);
    b.option("vm.overcommit_memory", &[0.0, 2.0], OptionKind::Kernel);
    b.option(
        "vm.overcommit_hugepages",
        &[0.0, 1.0, 2.0],
        OptionKind::Kernel,
    );
    b.option_with_default(
        "kernel.cpu_time_max_percent",
        &[10.0, 40.0, 70.0, 100.0],
        OptionKind::Kernel,
        3,
    );
    b.option("kernel.max_pids", &[32768.0, 65536.0], OptionKind::Kernel);
    b.option("kernel.numa_balancing", &[0.0, 1.0], OptionKind::Kernel);
    b.option(
        "kernel.sched_latency_ns",
        &[24_000_000.0, 48_000_000.0],
        OptionKind::Kernel,
    );
    b.option(
        "kernel.sched_nr_migrate",
        &[32.0, 64.0, 128.0],
        OptionKind::Kernel,
    );
    b.option(
        "kernel.sched_rt_period_us",
        &[1_000_000.0, 2_000_000.0],
        OptionKind::Kernel,
    );
    b.option_with_default(
        "kernel.sched_rt_runtime_us",
        &[500_000.0, 950_000.0],
        OptionKind::Kernel,
        1,
    );
    b.option(
        "kernel.sched_time_avg_ms",
        &[1000.0, 2000.0],
        OptionKind::Kernel,
    );
    b.option(
        "kernel.sched_child_runs_first",
        &[0.0, 1.0],
        OptionKind::Kernel,
    );
    b.option_with_default("Swap Memory", &[1.0, 2.0, 3.0, 4.0], OptionKind::Kernel, 1);
    b.option("Scheduler Policy", &[0.0, 1.0], OptionKind::Kernel); // CFP, NOOP
    b.option("Drop Caches", &[0.0, 1.0, 2.0, 3.0], OptionKind::Kernel);

    // Hardware options — Table 9 ranges discretized to the measurement
    // grids used in the study. Defaults are the boards' nominal settings.
    b.option_with_default("CPU Cores", &[1.0, 2.0, 3.0, 4.0], OptionKind::Hardware, 3);
    b.option_with_default(
        "CPU Frequency",
        &[0.3, 0.65, 1.0, 1.5, 2.0],
        OptionKind::Hardware,
        3,
    );
    b.option_with_default(
        "GPU Frequency",
        &[0.1, 0.4, 0.7, 1.0, 1.3],
        OptionKind::Hardware,
        3,
    );
    b.option_with_default(
        "EMC Frequency",
        &[0.1, 0.5, 1.0, 1.4, 1.8],
        OptionKind::Hardware,
        3,
    );
}

/// Application-intensity weights: how strongly the subject system drives
/// each resource. These differentiate e.g. BERT (compute/memory heavy)
/// from SQLite (I/O heavy).
#[derive(Debug, Clone, Copy)]
pub struct AppWeights {
    /// Instruction-stream intensity.
    pub compute: f64,
    /// Memory-traffic intensity.
    pub memory: f64,
    /// Branchiness.
    pub branch: f64,
    /// Syscall/I-O intensity.
    pub io: f64,
}

/// Declares the 19 base events with their kernel/hardware mechanisms.
///
/// Scales put the raw values into realistic magnitudes (instructions in
/// billions, faults in thousands, …).
pub fn add_base_events(b: &mut SystemBuilder, w: &AppWeights) {
    b.event("Instructions", 4.0e9, 0.02)
        .bias("Instructions", 0.4 * w.compute)
        .term(
            "Instructions",
            0.08,
            &["kernel.cpu_time_max_percent"],
            EnvExp::none(),
        )
        .term(
            "Instructions",
            0.05,
            &["kernel.sched_child_runs_first"],
            EnvExp::none(),
        );

    b.event("Cycles", 6.0e9, 0.02)
        .bias("Cycles", 0.15)
        .term(
            "Cycles",
            1.0,
            &["Instructions"],
            EnvExp {
                cpu: -0.6,
                ..EnvExp::none()
            },
        )
        .term(
            "Cycles",
            -0.45,
            &["Instructions", "CPU Frequency"],
            EnvExp::microarch(0.4),
        );

    b.event("Cache References", 1.5e8, 0.02)
        .bias("Cache References", 0.25 * w.memory)
        .term("Cache References", 0.55, &["Instructions"], EnvExp::none());

    b.event("Cache Misses", 4.0e7, 0.03)
        .bias("Cache Misses", 0.05)
        .term(
            "Cache Misses",
            0.35,
            &["Cache References"],
            EnvExp {
                mem: -0.5,
                ..EnvExp::none()
            },
        )
        .term(
            "Cache Misses",
            0.30,
            &["Cache References", "vm.vfs_cache_pressure"],
            EnvExp::microarch(0.5),
        )
        .term(
            "Cache Misses",
            0.25,
            &["Cache References", "Drop Caches"],
            EnvExp::none(),
        )
        .term(
            "Cache Misses",
            -0.22,
            &["Cache References", "EMC Frequency"],
            EnvExp::microarch(0.3),
        );

    b.event("L1 dcache Loads", 9.0e8, 0.02)
        .bias("L1 dcache Loads", 0.1)
        .term("L1 dcache Loads", 0.8, &["Instructions"], EnvExp::none());

    b.event("L1 dcache Load Misses", 5.0e7, 0.03)
        .bias("L1 dcache Load Misses", 0.04)
        .term(
            "L1 dcache Load Misses",
            0.3,
            &["L1 dcache Loads"],
            EnvExp::none(),
        )
        .term(
            "L1 dcache Load Misses",
            0.2,
            &["L1 dcache Loads", "vm.vfs_cache_pressure"],
            EnvExp::microarch(0.4),
        );

    b.event("L1 dcache Stores", 5.0e8, 0.02)
        .bias("L1 dcache Stores", 0.08)
        .term("L1 dcache Stores", 0.6, &["Instructions"], EnvExp::none());

    b.event("Branch Loads", 6.0e8, 0.02)
        .bias("Branch Loads", 0.1 * w.branch)
        .term("Branch Loads", 0.7, &["Instructions"], EnvExp::none());

    b.event("Branch Loads Misses", 3.0e7, 0.03)
        .bias("Branch Loads Misses", 0.03)
        .term(
            "Branch Loads Misses",
            0.25,
            &["Branch Loads"],
            EnvExp::microarch(0.5),
        );

    b.event("Branch Misses", 2.5e7, 0.03)
        .bias("Branch Misses", 0.03)
        .term(
            "Branch Misses",
            0.3,
            &["Branch Loads"],
            EnvExp::microarch(0.6),
        );

    b.event("Context Switches", 2.0e5, 0.03)
        .bias("Context Switches", 0.12 * w.io)
        .term(
            "Context Switches",
            -0.20,
            &["kernel.sched_latency_ns"],
            EnvExp::none(),
        )
        .term(
            "Context Switches",
            0.22,
            &["kernel.sched_nr_migrate"],
            EnvExp::none(),
        )
        .term(
            "Context Switches",
            0.18,
            &["Scheduler Policy"],
            EnvExp::none(),
        )
        .term(
            "Context Switches",
            0.20,
            &["kernel.numa_balancing"],
            EnvExp::none(),
        )
        .term("Context Switches", 0.15, &["CPU Cores"], EnvExp::none());

    b.event("Migrations", 5.0e4, 0.03)
        .bias("Migrations", 0.03)
        .term("Migrations", 0.35, &["Context Switches"], EnvExp::none())
        .term(
            "Migrations",
            0.30,
            &["Context Switches", "kernel.numa_balancing"],
            EnvExp::none(),
        )
        .term("Migrations", 0.18, &["CPU Cores"], EnvExp::none());

    b.event("Major Faults", 3.0e3, 0.04)
        .bias("Major Faults", 0.04)
        .term(
            "Major Faults",
            0.30,
            &["vm.swappiness"],
            EnvExp {
                mem: -0.4,
                ..EnvExp::none()
            },
        )
        .term(
            "Major Faults",
            -0.22,
            &["vm.swappiness", "Swap Memory"],
            EnvExp::none(),
        )
        .term(
            "Major Faults",
            0.45,
            &["vm.swappiness", "Drop Caches"],
            EnvExp::microarch(0.4),
        )
        .term(
            "Major Faults",
            0.12,
            &["vm.overcommit_memory"],
            EnvExp::none(),
        );

    b.event("Minor Faults", 8.0e5, 0.03)
        .bias("Minor Faults", 0.10 * w.memory)
        .term(
            "Minor Faults",
            0.25,
            &["vm.overcommit_memory"],
            EnvExp::none(),
        )
        .term("Minor Faults", -0.18, &["vm.nr_hugepages"], EnvExp::none())
        .term(
            "Minor Faults",
            0.12,
            &["vm.overcommit_ratio"],
            EnvExp::none(),
        );

    b.event("Scheduler Wait Time", 1.0e4, 0.03)
        .bias("Scheduler Wait Time", 0.25)
        .term(
            "Scheduler Wait Time",
            0.5,
            &["Context Switches"],
            EnvExp::none(),
        )
        .term(
            "Scheduler Wait Time",
            -0.30,
            &["Context Switches", "CPU Cores"],
            EnvExp::none(),
        )
        .term(
            "Scheduler Wait Time",
            -0.10,
            &["kernel.cpu_time_max_percent"],
            EnvExp::none(),
        )
        .term(
            "Scheduler Wait Time",
            -0.08,
            &["kernel.sched_rt_runtime_us"],
            EnvExp::none(),
        );

    b.event("Scheduler Sleep Time", 1.0e4, 0.03)
        .bias("Scheduler Sleep Time", 0.08 * w.io)
        .term(
            "Scheduler Sleep Time",
            0.25,
            &["vm.dirty_background_ratio"],
            EnvExp::none(),
        )
        .term(
            "Scheduler Sleep Time",
            0.18,
            &["vm.dirty_ratio"],
            EnvExp::none(),
        )
        .term(
            "Scheduler Sleep Time",
            -0.10,
            &["vm.dirty_background_bytes"],
            EnvExp::none(),
        );

    b.event("Number of Syscall Enter", 5.0e5, 0.02)
        .bias("Number of Syscall Enter", 0.15 * w.io)
        .term(
            "Number of Syscall Enter",
            0.06,
            &["kernel.max_pids"],
            EnvExp::none(),
        );

    b.event("Number of Syscall Exit", 5.0e5, 0.02)
        .bias("Number of Syscall Exit", 0.01)
        .term(
            "Number of Syscall Exit",
            0.97,
            &["Number of Syscall Enter"],
            EnvExp::none(),
        );

    // Deliberately (near-)isolated: exercises sparsity handling.
    b.event("Emulation Faults", 1.0e2, 0.08)
        .bias("Emulation Faults", 0.1);
}

/// Weights wiring events into the three standard objectives.
#[derive(Debug, Clone, Copy)]
pub struct ObjectiveWeights {
    /// Latency scale (raw seconds per internal unit).
    pub latency_scale: f64,
    /// Latency weight on `Cycles`.
    pub lat_cycles: f64,
    /// Latency weight on `Cache Misses`.
    pub lat_cache: f64,
    /// Latency weight on `Major Faults`.
    pub lat_faults: f64,
    /// Latency weight on `Scheduler Wait Time`.
    pub lat_wait: f64,
    /// Energy scale (raw joules per internal unit).
    pub energy_scale: f64,
    /// Heat scale (raw °C-above-ambient per internal unit).
    pub heat_scale: f64,
}

/// Adds `Latency`, `Energy` and `Heat` objectives (all minimized) with the
/// standard event wiring and the latency/energy trade-off through
/// `CPU Frequency` / `GPU Frequency`.
pub fn add_standard_objectives(b: &mut SystemBuilder, w: &ObjectiveWeights) {
    b.objective("Latency", w.latency_scale, 0.02)
        .bias("Latency", 0.10)
        .term(
            "Latency",
            w.lat_cycles,
            &["Cycles"],
            EnvExp {
                cpu: -0.4,
                workload: 1.0,
                ..EnvExp::none()
            },
        )
        .term(
            "Latency",
            w.lat_cache,
            &["Cache Misses"],
            EnvExp {
                mem: -0.5,
                workload: 1.0,
                ..EnvExp::none()
            },
        )
        .term(
            "Latency",
            w.lat_faults,
            &["Major Faults"],
            EnvExp {
                workload: 0.5,
                ..EnvExp::none()
            },
        )
        .term(
            "Latency",
            w.lat_wait,
            &["Scheduler Wait Time"],
            EnvExp::none(),
        )
        .term("Latency", 0.08, &["Minor Faults"], EnvExp::none());

    b.objective("Energy", w.energy_scale, 0.02)
        .bias("Energy", 0.12)
        .term("Energy", 0.45, &["Cycles"], EnvExp::energy_term())
        .term(
            "Energy",
            0.55,
            &["Cycles", "CPU Frequency"],
            EnvExp {
                energy: 1.0,
                microarch: 0.3,
                ..EnvExp::none()
            },
        )
        .term(
            "Energy",
            0.30,
            &["Cycles", "GPU Frequency"],
            EnvExp::energy_term(),
        )
        .term("Energy", 0.20, &["Cache Misses"], EnvExp::energy_term())
        .term("Energy", 0.10, &["Major Faults"], EnvExp::none());

    b.objective("Heat", w.heat_scale, 0.03)
        .bias("Heat", 0.20)
        .term(
            "Heat",
            0.40,
            &["Cycles", "CPU Frequency"],
            EnvExp::thermal_term(),
        )
        .term(
            "Heat",
            0.30,
            &["Cycles", "GPU Frequency"],
            EnvExp::thermal_term(),
        )
        .term("Heat", 0.12, &["Cache Misses"], EnvExp::thermal_term());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::environment::EnvParams;

    fn minimal_system() -> crate::gtm::SystemModel {
        let mut b = SystemBuilder::new("substrate-test");
        b.option("App Knob", &[0.0, 1.0], OptionKind::Software);
        add_stack_options(&mut b);
        add_base_events(
            &mut b,
            &AppWeights {
                compute: 1.0,
                memory: 1.0,
                branch: 1.0,
                io: 1.0,
            },
        );
        b.term("Instructions", 0.5, &["App Knob"], EnvExp::none());
        add_standard_objectives(
            &mut b,
            &ObjectiveWeights {
                latency_scale: 10.0,
                lat_cycles: 0.9,
                lat_cache: 0.5,
                lat_faults: 1.1,
                lat_wait: 0.4,
                energy_scale: 80.0,
                heat_scale: 30.0,
            },
        );
        b.build()
    }

    #[test]
    fn counts_match_the_paper() {
        let m = minimal_system();
        // 1 software + 22 kernel + 4 hardware = 27 options.
        assert_eq!(m.n_options(), 27);
        assert_eq!(m.n_events(), 19);
        assert_eq!(m.n_objectives(), 3);
    }

    #[test]
    fn cpu_frequency_creates_latency_energy_tradeoff() {
        let m = minimal_system();
        let env = EnvParams::neutral();
        let mut lo = m.space.default_config();
        let mut hi = lo.clone();
        let f = m.space.index_of("CPU Frequency").unwrap();
        lo.values[f] = 0.3;
        hi.values[f] = 2.0;
        let obj_lo = m.true_objectives(&lo, &env);
        let obj_hi = m.true_objectives(&hi, &env);
        // Latency improves with frequency, energy worsens.
        assert!(
            obj_hi[0] < obj_lo[0],
            "latency {} !< {}",
            obj_hi[0],
            obj_lo[0]
        );
        assert!(
            obj_hi[1] > obj_lo[1],
            "energy {} !> {}",
            obj_hi[1],
            obj_lo[1]
        );
    }

    #[test]
    fn swappiness_drop_caches_interaction_inflates_faults() {
        let m = minimal_system();
        let env = EnvParams::neutral();
        let mut good = m.space.default_config();
        let sw = m.space.index_of("vm.swappiness").unwrap();
        let dc = m.space.index_of("Drop Caches").unwrap();
        let sm = m.space.index_of("Swap Memory").unwrap();
        good.values[sw] = 10.0;
        good.values[dc] = 0.0;
        let mut bad = good.clone();
        bad.values[sw] = 90.0;
        bad.values[dc] = 3.0;
        bad.values[sm] = 1.0;
        let mf = m.space.index_of("vm.swappiness").unwrap(); // sanity
        assert!(mf == sw);
        let ev_idx = m.event_node(12); // Major Faults
        let (_, raw_good) = m.evaluate(&good, &env, None);
        let (_, raw_bad) = m.evaluate(&bad, &env, None);
        assert!(
            raw_bad[ev_idx] > 4.0 * raw_good[ev_idx],
            "faults {} !>> {}",
            raw_bad[ev_idx],
            raw_good[ev_idx]
        );
        // And the latency tail follows.
        let lat_good = m.true_objectives(&good, &env)[0];
        let lat_bad = m.true_objectives(&bad, &env)[0];
        assert!(lat_bad > lat_good);
    }

    #[test]
    fn all_event_values_positive_under_defaults() {
        let m = minimal_system();
        let env = EnvParams::neutral();
        let c: Config = m.space.default_config();
        let (_, raw) = m.evaluate(&c, &env, None);
        for (i, name) in m.event_names.iter().enumerate() {
            let v = raw[m.event_node(i)];
            assert!(v >= 0.0, "event {name} negative: {v}");
        }
    }
}
