//! The transpiling device executor.
//!
//! Implements [`qt_sim::Runner`] with the full pipeline the paper applies
//! to every circuit before running it on hardware: lower to the CX basis,
//! choose a noise-aware layout (multiple seeded trials, keep the
//! min-CX-count result — the paper transpiles 50 times and keeps the best),
//! route with SWAPs, compact onto the used physical qubits and simulate
//! with the device's calibration-derived noise model.

use crate::calibration::Device;
use crate::layout::choose_layout;
use crate::route::{compact_program, lower_program, route_program};
use qt_circuit::Circuit;
use qt_sim::{
    backend, Backend, BatchJob, Executor, Op, Program, ResolvedEngine, RunError, RunErrorKind,
    RunOutput, Runner,
};

/// A transpiled job: the compact physical program, the physical qubits
/// backing each compact index, and the compact indices of the measured
/// qubits.
type Transpiled = (Program, Vec<usize>, Vec<usize>);

/// A device-backed program runner.
#[derive(Debug, Clone)]
pub struct DeviceExecutor {
    /// The device model.
    pub device: Device,
    /// Simulation backend for the compacted noisy program.
    pub backend: Backend,
    /// Number of layout trials (min 2q-count wins).
    pub layout_trials: usize,
    /// Base seed for layout randomization.
    pub seed: u64,
    /// Replace state-dependent channels (thermal relaxation) by their
    /// Pauli-twirling approximation when the compacted register exceeds the
    /// exact density-matrix limit, so the trajectory engine can use its
    /// stratified fast path. Exact channels are kept for small registers.
    pub twirl_large_registers: bool,
}

impl DeviceExecutor {
    /// Creates an executor with the paper's defaults (analogous to 50
    /// transpile seeds; we use 16 as the greedy layout is less random).
    pub fn new(device: Device) -> Self {
        DeviceExecutor {
            device,
            backend: Backend::default(),
            layout_trials: 16,
            seed: 0x51a7e,
            twirl_large_registers: true,
        }
    }

    /// Transpiles a program: lower → layout → route → compact.
    ///
    /// Returns the compact program, the physical qubits backing each compact
    /// index, and the compact indices of `measured`.
    ///
    /// # Panics
    ///
    /// Panics on jobs [`DeviceExecutor::try_transpile`] rejects (program
    /// wider than the device, measured qubit out of range). The fallible
    /// batch surface ([`Runner::try_run_batch`]) reports those as typed
    /// [`RunError`]s instead.
    pub fn transpile(&self, program: &Program, measured: &[usize]) -> Transpiled {
        match self.try_transpile(program, measured) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`DeviceExecutor::transpile`] with typed failure: a job the device
    /// cannot host (more program qubits than physical qubits, a measured
    /// qubit outside the register, a measured qubit the routed program
    /// never uses) returns a permanent [`RunErrorKind::Transpile`] error
    /// instead of panicking — calibration and layout failures become
    /// per-job typed failures the retry/degradation machinery upstream
    /// can route around.
    ///
    /// # Errors
    ///
    /// Permanent [`RunErrorKind::Transpile`] errors as above; transpile
    /// failures are never transient (the same program fails the same way
    /// on every attempt).
    pub fn try_transpile(
        &self,
        program: &Program,
        measured: &[usize],
    ) -> Result<Transpiled, RunError> {
        let transpile_err = |detail: String| RunError::permanent(RunErrorKind::Transpile, detail);
        if program.n_qubits() > self.device.n_qubits() {
            return Err(transpile_err(format!(
                "program needs {} qubits but device {} has {}",
                program.n_qubits(),
                self.device.name,
                self.device.n_qubits()
            )));
        }
        if let Some(&q) = measured.iter().find(|&&q| q >= program.n_qubits()) {
            return Err(transpile_err(format!(
                "measured qubit {q} outside the {}-qubit program register",
                program.n_qubits()
            )));
        }
        let lowered = lower_program(program);
        // Layout works on the gate skeleton.
        let mut skeleton = Circuit::new(program.n_qubits());
        for op in lowered.ops() {
            if let Op::Gate(i) | Op::IdealGate(i) = op {
                skeleton.push(i.gate.clone(), i.qubits.clone());
            }
        }
        let mut best: Option<(usize, Program, Vec<usize>, Vec<usize>)> = None;
        for t in 0..self.layout_trials.max(1) {
            let layout = choose_layout(
                &skeleton,
                &self.device,
                measured,
                self.seed.wrapping_add(t as u64 * 0x9e37),
                4,
            );
            let routed = route_program(&lowered, &layout, &self.device.coupling);
            let (compact, physical) = compact_program(&routed.program);
            let cx = compact.two_qubit_gate_count();
            if best.as_ref().is_none_or(|(c, ..)| cx < *c) {
                let compact_measured: Vec<usize> = measured
                    .iter()
                    .map(|&l| {
                        let p = routed.final_layout[l];
                        physical.iter().position(|&x| x == p).ok_or_else(|| {
                            transpile_err(format!(
                                "measured qubit {l} maps to physical {p}, which the routed \
                                 program never uses"
                            ))
                        })
                    })
                    .collect::<Result<_, RunError>>()?;
                best = Some((cx, compact, physical, compact_measured));
            }
        }
        let (_, compact, physical, compact_measured) = best.expect("at least one trial");
        Ok((compact, physical, compact_measured))
    }
}

impl Runner for DeviceExecutor {
    fn run(&self, program: &Program, measured: &[usize]) -> RunOutput {
        let (compact, physical, compact_measured) = self.transpile(program, measured);
        let mut noise = self.device.noise_model_for(&physical);
        if self.twirl_large_registers {
            // Twirl exactly when the backend resolves this register to the
            // sampling engine (its stratified fast path needs mixtures).
            // Twirling is an optimization: a model carrying an untwirlable
            // (>2-qubit) channel keeps its original channels instead.
            if let ResolvedEngine::Trajectory(_) = self.backend.resolve(compact.n_qubits()) {
                if let Ok(twirled) = noise.pauli_twirled() {
                    noise = twirled;
                }
            }
        }
        let exec = Executor::with_backend(noise, self.backend);
        let raw = exec.noisy_distribution(&compact, &compact_measured);
        RunOutput {
            dist: raw,
            gates: compact.gate_count(),
            two_qubit_gates: compact.two_qubit_gate_count(),
        }
    }

    /// Transpiles every job (in parallel over
    /// [`backend::parallel_indexed`]; layout trials are seeded, so results
    /// match serial execution exactly), then groups the compacted
    /// physical programs by their backing qubit set and executes each
    /// group as one batch on an inner [`Executor`] — whose default
    /// prefix-sharing trie path (`qt_sim::trie`) evolves physically-equal
    /// program prefixes once per group. First-use compaction
    /// ([`crate::route::compact_program`]) canonicalizes the routed
    /// programs so equal prefixes stay equal after register renaming.
    fn run_batch(&self, jobs: &[BatchJob]) -> Vec<RunOutput> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let transpiled: Vec<Transpiled> =
            backend::parallel_indexed(jobs.len(), backend::available_threads(), |i| {
                self.transpile(&jobs[i].program, &jobs[i].measured)
            });
        self.execute_transpiled(transpiled)
    }

    /// The fallible surface: transpilation failures become per-job typed
    /// [`RunErrorKind::Transpile`] errors instead of panics, and the
    /// remaining jobs execute exactly as [`Runner::run_batch`] would —
    /// grouped execution is bit-identical for any subset of the batch, so
    /// an untranspilable cohabitant never perturbs healthy results.
    fn try_run_batch(&self, jobs: &[BatchJob]) -> Vec<Result<RunOutput, RunError>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let transpiled: Vec<Result<Transpiled, RunError>> =
            backend::parallel_indexed(jobs.len(), backend::available_threads(), |i| {
                self.try_transpile(&jobs[i].program, &jobs[i].measured)
            });
        let ok_idx: Vec<usize> = transpiled
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ok())
            .map(|(i, _)| i)
            .collect();
        let mut ok_jobs = Vec::with_capacity(ok_idx.len());
        let mut results: Vec<Result<RunOutput, RunError>> = transpiled
            .into_iter()
            .map(|t| match t {
                Ok(tr) => {
                    ok_jobs.push(tr);
                    // Placeholder, overwritten by the scatter below.
                    Err(RunError::permanent(RunErrorKind::Backend, String::new()))
                }
                Err(e) => Err(e),
            })
            .collect();
        for (&i, out) in ok_idx.iter().zip(self.execute_transpiled(ok_jobs)) {
            results[i] = Ok(out);
        }
        results
    }
}

impl DeviceExecutor {
    /// Everything [`Runner::run_batch`] does after transpilation: group
    /// the compacted programs by backing physical register and execute
    /// each group as one batch on an inner [`Executor`].
    fn execute_transpiled(&self, transpiled: Vec<Transpiled>) -> Vec<RunOutput> {
        if transpiled.is_empty() {
            return Vec::new();
        }
        // Group by backing physical register: the calibration-derived
        // noise model (and therefore the simulated batch) is a function
        // of that list alone.
        let mut by_register: std::collections::BTreeMap<Vec<usize>, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, (_, physical, _)) in transpiled.iter().enumerate() {
            by_register.entry(physical.clone()).or_default().push(i);
        }
        let groups: Vec<(Vec<usize>, Vec<usize>)> = by_register.into_iter().collect();
        // A lone group runs on the caller, so the inner executor's work
        // pool keeps the whole machine; several groups each run on a
        // worker, where the inner pool runs serially.
        let results = backend::parallel_indexed(groups.len(), backend::available_threads(), |g| {
            let (physical, idxs) = &groups[g];
            let mut noise = self.device.noise_model_for(physical);
            if self.twirl_large_registers {
                // As in `run`: skip the twirl (an optimization) when the
                // model carries an untwirlable channel.
                if let ResolvedEngine::Trajectory(_) = self.backend.resolve(physical.len()) {
                    if let Ok(twirled) = noise.pauli_twirled() {
                        noise = twirled;
                    }
                }
            }
            let exec = Executor::with_backend(noise, self.backend);
            let group_jobs: Vec<BatchJob> = idxs
                .iter()
                .map(|&i| BatchJob::new(transpiled[i].0.clone(), transpiled[i].2.clone()))
                .collect();
            exec.run_batch(&group_jobs)
        });
        let mut out: Vec<Option<RunOutput>> = vec![None; transpiled.len()];
        for ((_, idxs), outs) in groups.iter().zip(results) {
            for (&i, o) in idxs.iter().zip(outs) {
                out[i] = Some(o);
            }
        }
        out.into_iter()
            .map(|o| o.expect("every job belongs to exactly one group"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_algos::vqe_ansatz;
    use qt_dist::hellinger_fidelity;
    use qt_sim::{ideal_distribution, NoiseModel};

    #[test]
    fn transpiled_semantics_match_ideal_when_noiseless() {
        // Zero out the calibration: transpiled run must equal ideal run.
        let mut dev = Device::fake_hanoi();
        for e in &mut dev.q1_error {
            *e = 0.0;
        }
        for (_, e) in dev.q2_error.iter_mut() {
            *e = 0.0;
        }
        for r in &mut dev.readout {
            *r = (0.0, 0.0);
        }
        dev.readout_crosstalk = 0.0;
        for t in &mut dev.t1 {
            *t = 1e15;
        }
        for t in &mut dev.t2 {
            *t = 1e15;
        }
        let exec = DeviceExecutor::new(dev);
        let circ = vqe_ansatz(5, 1, 11);
        let measured: Vec<usize> = (0..5).collect();
        let out = exec.run(&Program::from_circuit(&circ), &measured);
        let want = ideal_distribution(&Program::from_circuit(&circ), &measured);
        for i in 0..1u64 << measured.len() {
            let (a, b) = (out.dist.prob(i), want.prob(i));
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn device_noise_degrades_fidelity() {
        let exec = DeviceExecutor::new(Device::fake_hanoi());
        let circ = vqe_ansatz(6, 2, 4);
        let measured: Vec<usize> = (0..6).collect();
        let prog = Program::from_circuit(&circ);
        let out = exec.run(&prog, &measured);
        let ideal = ideal_distribution(&prog, &measured);
        let f = hellinger_fidelity(&out.dist, &ideal);
        assert!(f < 0.999, "expected noise, fidelity {f}");
        assert!(f > 0.3, "noise unreasonably strong, fidelity {f}");
    }

    #[test]
    fn cx_counts_match_expectations_for_chain_ansatz() {
        // 12q 1-layer VQE: 11 CZ → 11 CX, and a good layout needs no swaps
        // on the heavy-hex device (Table II's original count is 11).
        let exec = DeviceExecutor::new(Device::fake_hanoi());
        let circ = vqe_ansatz(12, 1, 3);
        let measured: Vec<usize> = (0..12).collect();
        let (compact, _, _) = exec.transpile(&Program::from_circuit(&circ), &measured);
        assert_eq!(compact.two_qubit_gate_count(), 11);
    }

    #[test]
    fn run_reports_transpiled_gate_counts() {
        let exec = DeviceExecutor::new(Device::fake_mumbai());
        let mut c = Circuit::new(2);
        c.h(0).cp(0, 1, 0.4);
        let out = exec.run(&Program::from_circuit(&c), &[0, 1]);
        assert_eq!(out.two_qubit_gates, 2, "CP lowers to 2 CX");
    }

    #[test]
    fn untranspilable_jobs_fail_typed_without_poisoning_the_batch() {
        let exec = DeviceExecutor::new(Device::fake_hanoi());
        let mut good = Circuit::new(2);
        good.h(0).cx(0, 1);
        let good_prog = Program::from_circuit(&good);
        let mut wide = Circuit::new(28); // fake_hanoi has 27 physical qubits
        wide.h(0);
        let jobs = vec![
            BatchJob::new(good_prog.clone(), vec![0, 1]),
            BatchJob::new(Program::from_circuit(&wide), vec![0]),
            BatchJob::new(good_prog.clone(), vec![5]), // out of register
        ];
        let results = exec.try_run_batch(&jobs);
        let clean = exec.run(&good_prog, &[0, 1]);
        let healthy = results[0].as_ref().expect("healthy job must survive");
        let xs: Vec<(u64, u64)> = healthy.dist.iter().map(|(i, p)| (i, p.to_bits())).collect();
        let ys: Vec<(u64, u64)> = clean.dist.iter().map(|(i, p)| (i, p.to_bits())).collect();
        assert_eq!(xs, ys, "cohabiting failures perturbed a healthy result");
        for (i, r) in results.iter().enumerate().skip(1) {
            match r {
                Err(e) => {
                    assert_eq!(e.kind, RunErrorKind::Transpile, "job {i}");
                    assert!(!e.transient, "transpile failures are permanent");
                }
                Ok(_) => panic!("job {i} should be untranspilable"),
            }
        }
    }

    #[test]
    fn plain_executor_and_device_agree_when_device_is_clean_line() {
        // Sanity: a clean line device with depolarizing-only noise matches a
        // plain executor with the same model (layout = identity works).
        let mut dev = Device::synthesize(
            "clean-line",
            crate::topology::CouplingMap::line(4),
            crate::calibration::CalibrationMedians {
                q1_error: 0.0,
                q2_error: 0.0,
                readout: 0.0,
                readout_crosstalk: 0.0,
                t1: 1e15,
                t2: 1e15,
                gate_time_1q: 0.0,
                gate_time_2q: 0.0,
            },
            1,
        );
        dev.q1_error = vec![0.0; 4];
        let exec = DeviceExecutor::new(dev);
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let out = exec.run(&Program::from_circuit(&c), &[0, 1, 2]);
        let plain = Executor::new(NoiseModel::ideal())
            .noisy_distribution(&Program::from_circuit(&c), &[0, 1, 2]);
        for i in 0..8u64 {
            assert!((out.dist.prob(i) - plain.prob(i)).abs() < 1e-9);
        }
    }
}
