#!/usr/bin/env python3
"""Mutation check: does the test suite notice a deliberately broken kernel?

    python3 tools/mutants.py

Copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
then applies each mutant of ``MUTANTS`` there, one at a time: a textual
replacement in one package file.  For each mutant it runs that mutant's test
files (pytest, stopping at the first failure) and reports the first test that
failed, which killed the mutant.  It prints killed/total and exits 1 if any
mutant survived, 2 if the copy does not pass unmutated or a mutant's text is
no longer in its file.  The working tree is never modified.

A surviving mutant is a gap in the tests: close it with a test, never by
removing the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file under src/holderpo
    old: str  # text that must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # test files under tests/


MUTANTS = (
    Mutant(
        "refresh keeps stale log_ratios", "sim.py",
        "log_ratios=np.where(batch.mask, new - batch.old_logprobs, 0.0))",
        "log_ratios=batch.log_ratios)",
        ("test_objectives.py", "test_sim.py"),
    ),
    Mutant(
        "concat pads mask with True", "objectives.py",
        "np.pad(value, ((0, 0), (0, short)))",
        "np.pad(value, ((0, 0), (0, short)), constant_values=value.dtype == bool)",
        ("test_objectives.py",),
    ),
    Mutant(
        "concat returns the first batch even when given several", "objectives.py",
        "        if len(batches) == 1:\n",
        "        if len(batches) >= 1:\n",
        ("test_objectives.py",),
    ),
    Mutant(
        "_random_batch draws the reward before the tokens", "verify.py",
        "        uniforms[i] = rng.random(policy_old.length)\n"
        "        rewards[i] = rng.integers(0, 2)\n",
        "        rewards[i] = rng.integers(0, 2)\n"
        "        uniforms[i] = rng.random(policy_old.length)\n",
        ("test_verify.py",),
    ),
    Mutant(
        "each grid judge gets the next instance's rows", "verify.py",
        "        for r, (rho, weights) in _paired(res, tested, grids):\n",
        "        for r, (rho, weights) in _paired(res, tested, [*grids][1:]):\n",
        ("test_verify.py",),
    ),
    Mutant(
        "grid rows trimmed to the chunk width, not to n", "verify.py",
        "weights[begin:end, : len(seq)]",
        "weights[begin:end]",
        ("test_verify.py",),
    ),
    Mutant(
        "p -> -p in holder_rows", "core.py",
        "    p = order.per_row(n.size)",
        "    p = -order.per_row(n.size)",
        ("test_core.py",),
    ),
    Mutant(
        "drop the up-front masked zeroing", "core.py",
        "    logs = np.where(mask, logs, 0.0)\n",
        "",
        ("test_core.py",),
    ),
    Mutant(
        "flip the sequence-gate direction", "objectives.py",
        "gated = ((adv > 0.0) & (rho > clip.high)) | ((adv < 0.0) & (rho < clip.low))",
        "gated = ((adv < 0.0) & (rho > clip.high)) | ((adv > 0.0) & (rho < clip.low))",
        ("test_objectives.py",),
    ),
    Mutant(
        "invert the token-clip kept mask", "objectives.py",
        "kept = row_mask & (adjusted == ratios)",
        "kept = row_mask & (adjusted != ratios)",
        ("test_objectives.py",),
    ),
    Mutant(
        "skip the refresh in train_many", "sim.py",
        "minibatch = refresh_logprobs(picked, policies, positions)",
        "minibatch = picked",
        ("test_sim.py",),
    ),
    Mutant(
        "the minibatch dict created once before the round loop", "sim.py",
        "        selected, positions, group_positions = {}, None, None\n",
        "        selected, positions, group_positions = (selected if round_idx else {}), None, "
        "None\n",
        ("test_sim.py",),
    ),
    Mutant(
        "drop row_scale", "objectives.py",
        "    if (terms.row_scale != 1.0).any():\n",
        "    if False:\n",
        ("test_objectives.py",),
    ),
    Mutant(
        "one weight x (1 + 1e-6), renormalised", "core.py",
        "    weights = shifted / total[:, None]\n",
        "    weights = shifted / total[:, None]\n"
        "    weights[:, 0] *= 1.0 + 1e-6\n"
        "    weights /= weights.sum(axis=1)[:, None]\n",
        ("test_core.py",),
    ),
    Mutant(
        "rho x (1 + 1e-9)", "core.py",
        "    rho = np.exp(log_rho)\n",
        "    rho = np.exp(log_rho) * (1.0 + 1e-9)\n",
        ("test_core.py",),
    ),
    Mutant(
        "every run draws the first run's seed", "sim.py",
        "seeds = [configs[run].seed for run in live]",
        "seeds = [configs[live[0]].seed for run in live]",
        ("test_sim.py",),
    ),
    Mutant(
        "reversed uniform rows", "sim.py",
        "[draws[seed][round_idx % block_rounds] for seed in seeds]",
        "[draws[seed][round_idx % block_rounds][::-1] for seed in seeds]",
        ("test_sim.py",),
    ),
    Mutant(
        "sampler counts over all V, not the first V - 1", "sim.py",
        "(cum[:, :, :-1, None] < self._blocks(u)",
        "(cum[:, :, :, None] < self._blocks(u)",
        ("test_sim.py",),
    ),
    Mutant(
        "sampler counts cum <= u, not cum < u", "sim.py",
        "None] < self._blocks(u).transpose(",
        "None] <= self._blocks(u).transpose(",
        ("test_sim.py",),
    ),
    Mutant(
        "every stacked row reads policy 0 in token_logprobs", "sim.py",
        ".reshape(self.runs, 1, self.length)\n",
        ".reshape(self.runs, 1, self.length) % self.param_dim\n",
        ("test_sim.py",),
    ),
    Mutant(
        "score_rows reads policy 0 for every row", "sim.py",
        "policy_of = chosen[:, 0] // self.param_dim",
        "policy_of = chosen[:, 0] // self.param_dim * 0",
        ("test_sim.py",),
    ),
    Mutant(
        "score rows' policies tiled across the stack, not in blocks", "sim.py",
        "policy_of = chosen[:, 0] // self.param_dim",
        "policy_of = np.arange(positions.size // self.length)[rows] % self.runs",
        ("test_sim.py",),
    ),
    Mutant(
        "the shared indexer drops the lower id bound", "sim.py",
        "unsigned = ids.view(ids.dtype.str.replace(\"i\", \"u\")) if",
        "unsigned = ids if",
        ("test_sim.py",),
    ),
    Mutant(
        "the id check reads ids in native byte order", "sim.py",
        "ids.view(ids.dtype.str.replace(\"i\", \"u\"))",
        "ids.view(f\"u{ids.itemsize}\")",
        ("test_sim.py",),
    ),
    Mutant(
        "the sampler drops its 2-D uniforms check", "sim.py",
        "    if np.ndim(uniforms) != 2:\n",
        "    if False:\n",
        ("test_sim.py",),
    ),
    Mutant(
        "stack row-count check dropped", "sim.py",
        "        if rows % self.runs:\n",
        "        if False:\n",
        ("test_sim.py",),
    ),
    Mutant(
        "limit_concentration's map is skipped", "verify.py",
        "    prepare=_separate_extremes,\n",
        "",
        ("test_verify.py",),
    ),
    Mutant(
        "short-row count check dropped", "verify.py",
        "    if judged < len(instances):\n",
        "    if False:\n",
        ("test_verify.py",),
    ),
    Mutant(
        "divergence check drops np.abs", "sim.py",
        "np.flatnonzero(np.abs(log_ratios) > ",
        "np.flatnonzero(log_ratios > ",
        ("test_sim.py",),
    ),
    Mutant(
        "divergence check flags non-finite rows", "sim.py",
        "if extreme < np.inf and row",
        "if row",
        ("test_sim.py",),
    ),
    Mutant(
        "check_all runs an empty selection", "verify.py",
        "    if not names:\n",
        "    if False:\n",
        ("test_verify.py",),
    ),
    Mutant(
        "contraction check compares row_coef with itself", "verify.py",
        "err = float(np.abs(seq.row_coef - np.where(closed, 0.0, adv)).max())",
        "err = float(np.abs(seq.row_coef - seq.row_coef).max())",
        ("test_verify.py",),
    ),
    Mutant(
        "dropped 128-bit carry in streams", "streams.py",
        "        x_hi += inc_hi + (x_lo < inc_lo)\n",
        "        x_hi += inc_hi\n",
        ("test_streams.py",),
    ),
    Mutant(
        "recurrence skips the seeding step", "streams.py",
        "    for step in range(length + 1):\n",
        "    for step in range(1, length + 1):\n",
        ("test_streams.py",),
    ),
    Mutant(
        "a seed of more than four words is hashed as if it had four", "streams.py",
        "max(_POOL_SIZE, -(-seed.bit_length() // 32))",
        "_POOL_SIZE",
        ("test_streams.py",),
    ),
    Mutant(
        "the seed's words padded to three", "streams.py",
        "words += [0] * (_POOL_SIZE - len(words))",
        "words += [0] * (3 - len(words))",
        ("test_streams.py",),
    ),
    Mutant(
        "the cross-mix also mixes a word into itself (src == dst)", "streams.py",
        "            if src != dst:\n"
        "                pool[dst] = mix(pool[dst], hashmix(pool[src]))\n",
        "            pool[dst] = mix(pool[dst], hashmix(pool[src]))\n",
        ("test_streams.py",),
    ),
    Mutant(
        "the hash multiplier not advanced after a hash", "streams.py",
        "        hash_const = hash_const * _MULT_A & _MASK32\n",
        "",
        ("test_streams.py",),
    ),
    Mutant(
        "every round of a block reads the block's first rows", "sim.py",
        "draws[seed][round_idx % block_rounds]",
        "draws[seed][0]",
        ("test_sim.py",),
    ),
    Mutant(
        "one gradient fold across the stack", "objectives.py",
        "per_run = per_group.reshape(terms.runs, -1, width)",
        "per_run = per_group.reshape(1, -1, width)",
        ("test_sim.py",),
    ),
    Mutant(
        "the group fold reduced along the innermost axis", "objectives.py",
        "np.add.reduce(per_rollout.reshape(-1, size, width), axis=1)",
        "np.add.reduce(per_rollout.reshape(-1, size, width).transpose(0, 2, 1).copy(), axis=2)",
        ("test_objectives.py",),
    ),
    Mutant(
        "a group is live only if all its advantages are nonzero", "objectives.py",
        "live = (batch.advantages != 0.0).reshape(-1, batch.group_size).any(axis=1)",
        "live = (batch.advantages != 0.0).reshape(-1, batch.group_size).all(axis=1)",
        ("test_objectives.py",),
    ),
    Mutant(
        "the plan's one-hot index without the per-row shift", "sim.py",
        "return policy_of, chosen + shift[:, None]",
        "return policy_of, chosen",
        ("test_objectives.py", "test_sim.py"),
    ),
    Mutant(
        "the stacked token-clip mask built from the first L mask rows", "objectives.py",
        "np.concatenate([mask, row_mask])",
        "np.concatenate([mask, mask[:rows.size]])",
        ("test_objectives.py",),
    ),
    Mutant(
        "the plan's token-clip signs read from the first L rows", "objectives.py",
        "(adv[rows] > 0.0)[:, None]",
        "(adv[:rows.size] > 0.0)[:, None]",
        ("test_objectives.py",),
    ),
    Mutant(
        "live group means written to the first slots", "objectives.py",
        "    per_group[live] = np.add.reduce(",
        "    per_group[:live.sum()] = np.add.reduce(",
        ("test_objectives.py",),
    ),
    Mutant(
        "V(p) over the whole stack", "objectives.py",
        "v_of_p=squares.sum(axis=1) / squares.shape[1],",
        "v_of_p=np.full(runs, squares.mean()),",
        ("test_sim.py",),
    ),
    Mutant(
        "token factors only for adv > 0.0 rows", "objectives.py",
        "rows = np.flatnonzero(adv != 0.0)",
        "rows = np.flatnonzero(adv > 0.0)",
        ("test_objectives.py",),
    ),
    Mutant(
        "rho read from the clipped rows of the stacked call", "objectives.py",
        "rho, h_rows = both[:adv.size], both[adv.size:]",
        "rho, h_rows = both[-adv.size:], both[adv.size:]",
        ("test_objectives.py",),
    ),
    Mutant(
        "positions not offset or rebuilt after a run leaves the stack", "sim.py",
        "                group_positions = policies.positions(rollouts.token_ids).reshape(\n"
        "                    -1, base.group_size, task.length)\n",
        "",
        ("test_sim.py",),
    ),
    Mutant(
        "the minibatch cache keyed by lo but never cleared", "sim.py",
        "                selected.clear()\n",
        "",
        ("test_sim.py",),
    ),
    Mutant(
        "the round's rollouts/positions not rebuilt when runs leave", "sim.py",
        "                rollouts = rollouts.select_groups(_block_groups(keep, group_count, 0, "
        "group_count))\n"
        "                group_positions = policies.positions(rollouts.token_ids).reshape(\n"
        "                    -1, base.group_size, task.length)\n",
        "",
        ("test_sim.py",),
    ),
    Mutant(
        "one-run minibatch sliced at group offset lo + 1", "sim.py",
        "slice(lo, lo + base.minibatch_size)",
        "slice(lo + 1, lo + 1 + base.minibatch_size)",
        ("test_sim.py",),
    ),
    Mutant(
        "shift taken from the untransposed copy along axis 0", "core.py",
        "np.ascontiguousarray(scaled.T).max(axis=0)",
        "np.ascontiguousarray(scaled).max(axis=0)",
        ("test_core.py",),
    ),
)


def run_tests(copy: Path, tests) -> tuple[bool, str]:
    """(passed, first failing test id) of pytest over the named test files in
    the copy, stopping at the first failure."""
    # no bytecode cache: a restored file may share a mutant's size and mtime
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "--tb=no", "-rfE",
            "-p", "no:cacheprovider", *(f"tests/{name}" for name in tests)]
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                          timeout=TEST_TIMEOUT_S)
    first = next((line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return proc.returncode == 0, first or proc.stdout.strip()[-200:]


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="holderpo-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        every_test = sorted({t for m in MUTANTS for t in m.tests})
        passed, detail = run_tests(copy, every_test)
        if not passed:
            print(f"the unmutated copy fails its tests: {detail}", file=sys.stderr)
            return 2

        survivors = []
        for m in MUTANTS:
            path = copy / "src" / "holderpo" / m.module
            original = path.read_text()
            if original.count(m.old) != 1:
                print(f"mutant {m.name!r}: its text occurs {original.count(m.old)} "
                      f"times in {m.module}, not once", file=sys.stderr)
                return 2
            path.write_text(original.replace(m.old, m.new))
            try:
                passed, killer = run_tests(copy, m.tests)
            finally:
                path.write_text(original)
            if passed:
                survivors.append(m.name)
                print(f"SURVIVED  {m.name}")
            else:
                print(f"killed    {m.name}  by {killer}")

    killed = len(MUTANTS) - len(survivors)
    print(f"{killed}/{len(MUTANTS)} mutants killed in {time.monotonic() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
