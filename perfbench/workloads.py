"""The benchmark's workloads: their inputs, set-up and one measured pass.

default_simulate  the frozen default scenario through `cli.main(["simulate",
                  ...])`: YAML load, parsing, integration, CSV, file write.
dense_log         the same run logged every DENSE_LOG_EVERY seconds, so the
                  solver takes the same steps and the per-record
                  reconstruction and CSV layers dominate.
ensemble          ENSEMBLE_SIZE seeded random scenarios through
                  `parse_scenario` + `integrate`, one end record each and no
                  CSV, so RHS evaluation and solver set-up dominate.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import yaml

import blowdown
from blowdown import cli
from blowdown.errors import BlowdownError

import validate

# The package's functions are looked up at call time (blowdown.integrate,
# cli.main) so that tracing.instrument can route these calls too.

BENCH_DIR = Path(__file__).resolve().parent
SCENARIO_FILE = BENCH_DIR / "default_scenario.yaml"
NAMES = ("default_simulate", "dense_log", "ensemble")

#: Log interval of dense_log [s]: 5,001 rows, where reconstruction and
#: CSV writing take most of the pass (short passes let the calibration
#: kernel follow the machine's speed closely).
DENSE_LOG_EVERY = 20.0

ENSEMBLE_SIZE = 100
ENSEMBLE_T_END = 2.0e4
#: Members between two calibration runs (about 0.2 s of work), so that a
#: drift of machine speed within a pass is followed.
ENSEMBLE_CHUNK = 10
#: Log interval used only to classify ensemble members, outside timing.
CLASSIFY_LOG_EVERY = 100.0


def make_ensemble(seed: int, size: int = ENSEMBLE_SIZE) -> List[dict]:
    """Seeded random scenario documents for the ensemble workload.

    Total inventory (3-60 t, log scale), initial consistency (0.04-0.40)
    and the initial inputs are Latin-hypercube stratified, so every seed
    draws the same mix of members that drain within the horizon (small
    inventories), that start or end above C_max = 0.30 (guard active), and
    that do neither; that keeps the work per pass within about 1% across
    seeds. Three step disturbances per member change one input each at
    random times. Each member logs one record at t_end, plus its
    breakpoints.
    """
    rng = np.random.default_rng(seed)

    def stratified():
        return (rng.permutation(size) + rng.random(size)) / size

    totals = np.exp(np.log(3.0e3) + stratified() * np.log(60.0e3 / 3.0e3))
    consistencies = 0.04 + stratified() * (0.40 - 0.04)
    draws = {"k_ch": (0.0, 1.0), "gamma_K": (0.0, 1.0),
             "f_in": (0.0, 5.0e-4), "q_p_ref": (1.0e-3, 4.0e-3)}
    keys = sorted(draws)
    docs = []
    holds = {key: lo + stratified() * (hi - lo)
             for key, (lo, hi) in draws.items()}
    for i, (total, c0) in enumerate(zip(totals, consistencies)):
        hold = {key: float(holds[key][i]) for key in keys}
        schedule = [dict(t=0.0, f_fl=0.0, **hold)]
        for t in np.sort(rng.uniform(1.0e3, ENSEMBLE_T_END - 1.0e3, 3)):
            key = keys[rng.integers(len(keys))]
            schedule.append({"t": round(float(t), 3),
                             key: float(rng.uniform(*draws[key]))})
        docs.append({
            "initial_state": {"M_s": round(float(total * c0), 3),
                              "M_fl": round(float(total * (1.0 - c0)), 3)},
            "schedule": schedule,
            "t_end": ENSEMBLE_T_END,
            "log_interval": ENSEMBLE_T_END,
        })
    return docs


@dataclass
class PassResult:
    """One pass. Times are at reference speed when a Timeline was given.

    Each pass starts after a full garbage collection, so that every pass,
    like a fresh run, starts from the same collector state.
    """

    elapsed: float
    op_s: List[float]
    ops: int
    failed: int
    digest: Optional[str]
    problems: List[str] = field(default_factory=list)
    #: time.monotonic() when the pass's output was complete
    finished: float = 0.0
    raw_elapsed: float = 0.0


def _columns(trajectory) -> Dict[str, np.ndarray]:
    return {name: np.asarray(trajectory.column(name), dtype=float)
            for name in validate.COLUMNS}


class Simulate:
    """One `blowdown simulate` of the frozen default scenario per pass."""

    def __init__(self, name: str, out_dir: Path):
        self.name = name
        self.document_file = SCENARIO_FILE
        self.csv_path = out_dir / "trajectory.csv"
        self.argv = ["simulate", "--scenario", str(SCENARIO_FILE),
                     "--out", str(out_dir)]
        self.log_every = DENSE_LOG_EVERY if name == "dense_log" else None
        if self.log_every is not None:
            self.argv += ["--log-every", repr(self.log_every)]
        self.scenarios = self.setup()
        s = self.scenarios[0]
        self.horizon = s.t_end
        self.rows = len(validate.log_grid(s.t_end, s.log_interval,
                                          [t for t, _ in s.schedule]))
        self._checked: Dict[str, List[str]] = {}
        self.kinds: Dict[str, Dict[str, bool]] = {}

    def setup(self):
        """Load and parse the workload's scenario document."""
        document = yaml.safe_load(self.document_file.read_text())
        scenario = blowdown.parse_scenario(document)
        if self.log_every is not None:
            scenario = replace(scenario, log_interval=self.log_every)
        return [scenario]

    def run_pass(self, tracer=None, run_base: int = 0,
                 timeline=None) -> PassResult:
        if tracer is not None:
            tracer.run_id = run_base
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(list(self.argv))
            raw = time.perf_counter() - start
        finished = time.monotonic()
        elapsed = raw * (timeline.factor() if timeline else 1.0)
        if code != 0:
            return PassResult(elapsed, [elapsed], 1, 1, None,
                              [f"simulate exited with code {code}"], finished,
                              raw)
        data = self.csv_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self._checked:
            text = data.decode("ascii", errors="replace")
            self._checked[digest] = validate.check_csv(text, self.scenarios[0])
            if not self._checked[digest]:
                self.kinds[digest] = validate.member_kinds(
                    validate.parse_csv(text), self.horizon)
        problems = self._checked[digest]
        return PassResult(elapsed, [elapsed], 1, int(bool(problems)), digest,
                          list(problems), finished, raw)

    def member_shares(self) -> Dict[str, float]:
        kinds = next(iter(self.kinds.values()), dict.fromkeys(validate.KINDS))
        return {key: float(bool(kinds[key])) for key in validate.KINDS}


class Ensemble:
    """ENSEMBLE_SIZE seeded scenarios integrated serially per pass."""

    def __init__(self, document_file: Path):
        self.name = "ensemble"
        self.document_file = document_file
        self.scenarios = self.setup()
        self.horizon = sum(s.t_end for s in self.scenarios)
        self.rows = sum(len(validate.log_grid(s.t_end, s.log_interval,
                                              [t for t, _ in s.schedule]))
                        for s in self.scenarios)

    def setup(self):
        """Load and parse the workload's scenario documents."""
        self.documents = yaml.safe_load(self.document_file.read_text())
        return [blowdown.parse_scenario(doc) for doc in self.documents]

    def run_pass(self, tracer=None, run_base: int = 0,
                 timeline=None) -> PassResult:
        """All members; with a timeline, scaled per ENSEMBLE_CHUNK members."""
        op_s, chunk_s, trajectories, failed, problems = [], [], [], 0, []
        elapsed = raw_elapsed = 0.0
        gc.collect()
        start = time.perf_counter()
        for i, document in enumerate(self.documents):
            if tracer is not None:
                tracer.run_id = run_base + i
            try:
                scenario = blowdown.parse_scenario(document)
                t0 = time.perf_counter()
                trajectories.append((scenario, blowdown.integrate(scenario)))
                chunk_s.append(time.perf_counter() - t0)
            except BlowdownError as exc:
                failed += 1
                problems.append(f"member {i}: {type(exc).__name__}: {exc}")
            if (i + 1) % ENSEMBLE_CHUNK == 0 or i + 1 == len(self.documents):
                raw = time.perf_counter() - start
                finished = time.monotonic()
                scale = timeline.factor() if timeline else 1.0
                raw_elapsed += raw
                elapsed += raw * scale
                op_s += [t * scale for t in chunk_s]
                chunk_s = []
                start = time.perf_counter()
        digest = hashlib.sha256()
        for i, (scenario, trajectory) in enumerate(trajectories):
            cols = _columns(trajectory)
            member_problems = validate.check_table(cols, scenario, mass=False)
            if member_problems:
                failed += 1
                problems += [f"member {i}: {p}" for p in member_problems]
            for name in validate.COLUMNS:
                digest.update(cols[name].tobytes())
        return PassResult(elapsed, op_s, len(self.documents), failed,
                          digest.hexdigest(), problems, finished, raw_elapsed)

    def member_shares(self) -> Dict[str, float]:
        """Share of members of each kind, from a densely logged re-run."""
        counts = dict.fromkeys(validate.KINDS, 0)
        for scenario in self.scenarios:
            dense = replace(scenario, log_interval=CLASSIFY_LOG_EVERY)
            kinds = validate.member_kinds(_columns(blowdown.integrate(dense)),
                                          scenario.t_end)
            for key, value in kinds.items():
                counts[key] += value
        return {key: value / len(self.scenarios)
                for key, value in counts.items()}


def ensemble_file(seed: int, out_dir: Path) -> Path:
    """Write the seed's ensemble documents as one YAML file."""
    path = out_dir / f"ensemble-{seed}.yaml"
    path.write_text(yaml.safe_dump(make_ensemble(seed)))
    return path


def build(name: str, out_dir: Path, document_file: Optional[Path] = None):
    """The workload, set up: its scenario documents loaded and parsed."""
    if name == "ensemble":
        return Ensemble(document_file)
    return Simulate(name, out_dir)
