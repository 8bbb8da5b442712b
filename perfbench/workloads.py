"""The benchmark workloads: set-up, input generation, one operation, checks.

Each workload drives statvac's public functions the way one CLI mode does,
so each is bound by a different module:

- ``fields_l48``: one boundary-data case through the per-case body of
  ``cli.run_fields`` on a prebuilt lmax-48 grid.  Bound by the dense
  (nmodes x nnodes) tables of ``spherical`` and by ``io`` parsing.
- ``small_sphere_l16``: one ``cli.run_small_sphere`` sweep of 32 radii at
  the CLI default lmax 16.  Bound by ``curvature.small_sphere_data``.
- ``verify_l16``: one ``cli.run_verify`` call over every suite at lmax 16.
  The only workload that runs ``oracles``; it also evaluates harmonics off
  the grid nodes.

Inputs come only from the seed.  An operation returns the text the CLI
would print; ``check`` parses that text and returns a list of problems,
empty when the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

from statvac import cli, io, mass
from statvac.curvature import random_jet, reference_expansions
from statvac.spherical import harmonics
from statvac.spherical.grid import build_grid

FIELDS_LMAX = 48
FIELDS_CASES = 8  # distinct cases per run, cycled through by the operations
SWEEP_TAUS = tuple(float(t) for t in np.geomspace(0.005, 0.05, 32))
VERIFY_LMAX = 16
# Operation i of verify_l16 runs with seed + i * VERIFY_SEED_STRIDE, so
# operation 0 uses the workload seed itself.  The cost of one verify call
# depends on its seed (the taylor suite redraws random metrics and
# integrates geodesics adaptively), so spreading a run over several seeds
# keeps the per-run median steady across workload seeds.
VERIFY_SEED_STRIDE = 1_000_003

# Tolerances of the output checks, each at least 100x the worst error
# measured over the inputs of seeds 0-9 (5.3e-15, 4.5e-15, 9.4e-17 and
# 6.6e-13 in the order below).  Roundoff in m1 is relative to the size of
# the terms it sums, m1_scale = sqrt(4 pi) (2 |H1_00| + |tr_00|) / (16 pi),
# since m1 itself can cancel to near zero; roundoff in the flux integral is
# relative to the max-norm of the data, the epsilon_estimate diagnostic.
M1_TOL = 1e-12  # |m1 - closed form| / m1_scale
M1_CONSISTENCY_TOL = 1e-12  # m1_consistency / epsilon_estimate
C3_ABS_TOL = 1e-12  # assembled_c3 against R/12
C5_ABS_TOL = 1e-9  # assembled_c5 against static_c5, as in the library's tests

# Grid tables that statvac fills lazily; fields_l48 fills them in set-up.
GRID_TABLES = ("_tables", "d2Ydtheta2", "dYdphi", "d2Ydthetadphi",
               "grad_tables", "tfhess_tables")


class GateHit(RuntimeError):
    """A report's solver residual is above the CLI's exit-3 limit."""


def _gate(reports):
    for report in reports:
        worst = max(report["diagnostics"]["residuals"].values(), default=0.0)
        if worst > cli.RESIDUAL_LIMIT:
            raise GateHit(f"solver residual {worst:.3e} above {cli.RESIDUAL_LIMIT}")


class FieldsL48:
    name = "fields_l48"

    def setup(self):
        self.grid = build_grid(FIELDS_LMAX)
        for table in GRID_TABLES:
            getattr(self.grid, table)

    def generate(self, seed, workdir):
        """Full-band lmax-48 cases with coefficients N(0,1) * 1e-2 / (1+l)^2."""
        rng = np.random.default_rng(seed)
        ls, ms = harmonics.mode_table(FIELDS_LMAX)

        def block(min_l):
            return {"lmax": FIELDS_LMAX, "coeffs": [
                {"l": int(l), "m": int(m),
                 "value": float(rng.standard_normal() * 1e-2 / (1.0 + l) ** 2)}
                for l, m in zip(ls, ms) if l >= min_l]}

        cases = [{"gamma1": {"trace": block(0), "p": block(2), "q": block(2)},
                  "H1": block(0)} for _ in range(FIELDS_CASES)]
        # the CLI sees parsed JSON, so the cases go through a JSON round trip
        self.cases = json.loads(json.dumps({"cases": cases}))["cases"]
        # m1 = (1/16 pi) int (2 H1 - tr gamma1), and int Y_00 = sqrt(4 pi)
        self.expected_m1, self.m1_scale = [], []
        for case in self.cases:
            h00 = case["H1"]["coeffs"][0]["value"]
            tr00 = case["gamma1"]["trace"]["coeffs"][0]["value"]
            factor = math.sqrt(4.0 * math.pi) / (16.0 * math.pi)
            self.expected_m1.append(factor * (2.0 * h00 - tr00))
            self.m1_scale.append(factor * (2.0 * abs(h00) + abs(tr00)))

    def run(self, i):
        pos = i % FIELDS_CASES
        where = f"input.cases[{pos}]"
        case = self.cases[pos]
        data = io.data_from_dict(case, self.grid, where=where)
        report = mass.estimate(data, tau=io.case_tau(case, where))
        report_dict = report.to_dict()
        _gate([report_dict])
        return io.dump_json({"mode": "fields", "lmax": FIELDS_LMAX,
                             "reports": [report_dict]})

    def check(self, text, i):
        report = json.loads(text)["reports"][0]
        pos = i % FIELDS_CASES
        problems = []
        err = abs(report["m1"] - self.expected_m1[pos]) / self.m1_scale[pos]
        if not err <= M1_TOL:
            problems.append(f"m1 off its closed form by {err:.3e} of m1_scale")
        diagnostics = report["diagnostics"]
        consistency = diagnostics["m1_consistency"] / diagnostics["epsilon_estimate"]
        if not consistency <= M1_CONSISTENCY_TOL:
            problems.append(f"m1_consistency is {consistency:.3e} of epsilon_estimate")
        if report["hawking"] is None:
            problems.append("hawking is None")
        return problems


class SmallSphereL16:
    name = "small_sphere_l16"

    def setup(self):
        pass

    def generate(self, seed, workdir):
        """One random curvature jet, written as jet JSON."""
        jet = random_jet(np.random.default_rng(seed))
        self.reference = reference_expansions(jet)
        self.path = workdir / f"jet_seed{seed}.json"
        self.path.write_text(json.dumps({"ric": jet.ric.tolist(),
                                         "dric": jet.dric.tolist(),
                                         "d2ric": jet.d2ric.tolist()}))
        self.config = cli.RunConfig(mode="small-sphere", input=str(self.path),
                                    tau=SWEEP_TAUS)

    def run(self, i):
        return cli.run_small_sphere(self.config)

    def check(self, text, i):
        out = json.loads(text)
        coeff = out["coefficients"]
        problems = []
        if len(out["reports"]) != len(SWEEP_TAUS):
            problems.append(f"{len(out['reports'])} reports for {len(SWEEP_TAUS)} radii")
        try:
            _gate(out["reports"])
        except GateHit as exc:
            problems.append(str(exc))
        err3 = abs(coeff["assembled_c3"] - self.reference.static_c3)
        if not err3 <= C3_ABS_TOL:
            problems.append(f"assembled_c3 off R/12 by {err3:.3e}")
        err5 = abs(coeff["assembled_c5"] - self.reference.static_c5)
        if not err5 <= C5_ABS_TOL:
            problems.append(f"assembled_c5 off static_c5 by {err5:.3e}")
        return problems


class VerifyL16:
    name = "verify_l16"

    def setup(self):
        pass

    def generate(self, seed, workdir):
        self.seed = seed

    def run(self, i):
        seed = self.seed + i * VERIFY_SEED_STRIDE
        return cli.run_verify(cli.RunConfig(mode="verify", seed=seed, lmax=VERIFY_LMAX))

    def check(self, text, i):
        out = json.loads(text)
        failed = [name for name, suite in out["suites"].items() if not suite["passed"]]
        problems = [f"suite {name} failed" for name in failed]
        if set(out["suites"]) != set(cli.suites.SUITE_NAMES):
            problems.append(f"suites run: {sorted(out['suites'])}")
        if not out["passed"]:
            problems.append("verify reports passed=false")
        return problems


WORKLOADS = {w.name: w for w in (FieldsL48, SmallSphereL16, VerifyL16)}
