"""The diagnostics CSV writers, routed through one ``metaio`` table writer,
write the bytes of the per-cell writers they replaced (kept below verbatim)."""

import numpy as np
import pytest

from cbopt.diagnostics import DecayReport, LaplacePoint, Verdict, write_error_csv, \
    write_laplace_csv
from cbopt.metaio import fmt_float

# ------------------------------------------------------- pre-change writers


def decay_csv_reference(self, path) -> None:
    header = (
        "n,mean_pairwise_sq,pairwise_bound,pairwise_ok,"
        "mean_consensus_sq,consensus_bound,consensus_ok"
    )
    lines = [header]
    for i in range(len(self.iterations)):
        lines.append(
            ",".join(
                [
                    str(int(self.iterations[i])),
                    fmt_float(self.mean_pairwise_sq[i]),
                    fmt_float(self.pairwise_bound[i]),
                    "true" if self.pairwise_ok[i] else "false",
                    fmt_float(self.mean_consensus_sq[i]),
                    fmt_float(self.consensus_bound[i]),
                    "true" if self.consensus_ok[i] else "false",
                ]
            )
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def laplace_csv_reference(points, path) -> None:
    dim = points[0].consensus.shape[0]
    header = "beta,gap," + ",".join(f"consensus_{i}" for i in range(dim))
    lines = [header]
    for p in points:
        fields = [fmt_float(p.beta), fmt_float(p.gap)]
        fields += [fmt_float(c) for c in p.consensus]
        lines.append(",".join(fields))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def error_csv_reference(iterations, errors, path) -> None:
    lines = ["iter,err_ref"]
    for n, e in zip(iterations, errors):
        lines.append(f"{int(n)},{fmt_float(e)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ------------------------------------------------------------------- checks

EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 0.1, 1 / 3, np.inf, -np.inf, np.nan, 1e-300]


def floats(rng, n):
    out = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
    k = min(n, len(EDGES))
    out[:k] = rng.permutation(EDGES)[:k]
    return out


def same_bytes(tmp_path, write_new, write_old):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_new(new)
    write_old(old)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("rows", [1, 2, 13, 101])
def test_decay_csv_bytes(tmp_path, rows):
    rng = np.random.default_rng(rows)
    report = DecayReport(
        iterations=np.arange(rows), mean_pairwise_sq=floats(rng, rows),
        pairwise_bound=floats(rng, rows), pairwise_ok=rng.random(rows) < 0.5,
        mean_consensus_sq=floats(rng, rows), consensus_bound=floats(rng, rows),
        consensus_ok=rng.random(rows) < 0.5, m=0.5, verdict=Verdict.SATISFIED,
        applicable=True, slack=1.5, runs=4, n_particles=3, initial_variance=0.25,
    )
    same_bytes(tmp_path, report.write_csv, lambda p: decay_csv_reference(report, p))
    text = (tmp_path / "new.csv").read_text().splitlines()
    assert {row.split(",")[3] for row in text[1:]} <= {"true", "false"}


@pytest.mark.parametrize(("count", "dim"), [(1, 1), (3, 4), (9, 20)])
def test_laplace_csv_bytes(tmp_path, count, dim):
    rng = np.random.default_rng(100 * count + dim)
    points = [LaplacePoint(float(b), floats(rng, dim), float(g))
              for b, g in zip(floats(rng, count), floats(rng, count))]
    same_bytes(tmp_path, lambda p: write_laplace_csv(points, p),
               lambda p: laplace_csv_reference(points, p))


@pytest.mark.parametrize("rows", [0, 1, 7, 40])
def test_error_csv_bytes(tmp_path, rows):
    rng = np.random.default_rng(rows)
    iterations = np.arange(0, 3 * rows, 3, dtype=np.int64)
    errors = floats(rng, rows)
    same_bytes(tmp_path, lambda p: write_error_csv(iterations, errors, p),
               lambda p: error_csv_reference(iterations, errors, p))
    # Plain lists, and columns of different lengths (rows stop at the shorter).
    same_bytes(tmp_path, lambda p: write_error_csv(list(iterations), list(errors[:-1]), p),
               lambda p: error_csv_reference(list(iterations), list(errors[:-1]), p))


def test_integer_valued_floats_keep_their_float_form(tmp_path):
    # The per-cell writers passed every value column through fmt_float.
    points = [LaplacePoint(1, np.array([0, 1]), 2), LaplacePoint(3, np.array([1, 0]), 0)]
    same_bytes(tmp_path, lambda p: write_laplace_csv(points, p),
               lambda p: laplace_csv_reference(points, p))
    same_bytes(tmp_path, lambda p: write_error_csv([0.0, 5.0, 10.0], [1, 2, 3], p),
               lambda p: error_csv_reference([0.0, 5.0, 10.0], [1, 2, 3], p))
    same_bytes(tmp_path, lambda p: write_error_csv(iter([]), iter([1.5]), p),
               lambda p: error_csv_reference(iter([]), iter([1.5]), p))
