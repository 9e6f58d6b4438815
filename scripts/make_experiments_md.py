#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from a completed `slip-experiments --all` log.

Usage::

    python scripts/make_experiments_md.py experiments_run.log EXPERIMENTS.md

The summary table at the top is maintained by hand in this script (it
carries the paper-vs-measured judgement); the full result tables are
embedded verbatim from the log so the document always matches a real
run.
"""

import re
import sys

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated with
`slip-experiments --all` (committed log: 150,000 accesses per
benchmark, seed 0, warmup 30%). Savings grow with trace length as more
pages finish learning their policies — numbers from a 250k run are
quoted in the deviations section. Regenerate with:

```bash
slip-experiments --all --length 150000           # this log
slip-experiments --all --length 500000           # higher fidelity
```

Absolute numbers are not expected to match: the paper simulates 500M
instruction SimPoints of real SPEC-CPU2006 in a full-system x86
simulator, while this repo drives synthetic benchmark analogs through a
trace-driven model (see DESIGN.md for the substitution inventory and the
scale compensations). What must match — and does — is the *shape*: which
policy wins, by roughly what factor, and where the crossovers fall.

## Headline comparison

| Experiment | Paper | Measured (150k-250k runs) | Shape verdict |
|---|---|---|---|
| Fig. 1 — LLC lines with zero reuse | >70% avg (NR=1 ~21%) | 81.3% avg (NR=1 13.3%) | reproduced — the motivation holds |
| Fig. 3 — soplex region classes | rorig 18% <=64K/72% miss; rperm ~100% miss; cperm 66% hot/24% miss | rorig ~9-18%/~85%; rperm 97-99% miss; cperm ~60%/~35% | reproduced |
| Fig. 9 — SLIP energy savings | SLIP 21%/13%, +ABP 35%/22% (L2/L3) | +ABP +19.8%/+6.8% at 150k; +26.7%/+13.8% at 250k | reproduced in sign and ordering: ABP contributes most, L2 > L3; magnitudes grow toward the paper's with trace length |
| Fig. 9 notes — NuRAPID / LRU-PEA | +84%/+94%, +79%/+83% energy | both increase L2/L3 energy by tens to hundreds of percent | reproduced: promotion movement energy dominates |
| Fig. 10 — full-system savings | +0.73% / +1.68% | +0.1% / -0.1% | near-noise as in the paper's low single digits; DRAM dominates the total |
| Fig. 11 — access vs movement | NUCA movement explodes; SLIP total < 1.0 | same pattern per benchmark | reproduced |
| Fig. 12 — relative miss traffic | L2 0.983/0.976 | 1.014 total (1.004 demand-only) | metadata overhead ~1% as in paper; the demand-miss *reduction* only partially reproduces |
| Fig. 13 — speedups | +0.06/+0.16/+0.24/+0.75%, all within ~1% | +0.4/-1.3/-0.2/-0.9%, all within ~1.5% | reproduced: DRAM-dominated AMAT keeps every policy near baseline |
| Fig. 14 — insertion classes (L2) | ABP 27%, >95% in ABP+partial+default, 'others' rare | ABP 39.1%, partial 3.9%, default 57.0%, others 0% | reproduced: bypassing dominates at L2, multi-chunk policies are never optimal |
| Fig. 15 — sublevel fractions | all policies shift toward sublevel 0, NUCA hardest | same ordering | reproduced |
| Fig. 16 — multicore shared L3 | 47% L3 energy, 5.5% DRAM saved | L3 savings positive on the mixes (+12.1% avg at 250k) | reproduced in direction; magnitude below paper |
| §2.1 — H-tree | +37% L2 / +32% L3 | +48.4% L2 / +60.7% L3 | reproduced: uniform worst-case wire energy is strictly worse |
| §6 — 22 nm | 35%->36% L2, 22%->25% L3 | savings grow at 22 nm | reproduced |
| §6 — bin width | 4b within 1% of 8b; 2b collapses | same pattern | reproduced |
| §4.2 — sampling | metadata 27% L2 traffic -> <2% | always-fetch >> time-based sampled | reproduced |
| §7 — replacement | SLIP orthogonal to replacement | LRU/DRRIP/SHiP within one band | reproduced |
| §7 — rd-blocks | extension proposal (no numbers) | sub-page blocks stay within the page-mode regime (`slip-experiments ablation-rdblock`) | implemented |

## Known deviations

1. **Magnitudes below the paper and scale-dependent.** Pages learn
   policies through TLB-miss-driven sampling; at short traces many
   pages are still sampling (running the Default SLIP) when measurement
   ends, diluting savings. Measured SLIP+ABP L2/L3 savings: ~20%/7% at
   150k accesses, ~27%/14% at 250k, trending toward the paper's 35%/22%
   at its 500M-instruction scale.
2. **Full-system savings ~0 instead of +1-2%.** DRAM energy dominates
   the full-system total and the paper's 2.2% DRAM-traffic reduction
   comes from pollution avoidance on real SPEC reuse patterns our
   synthetic analogs only partly recreate; bypass decisions at the LLC
   carry a 75x mistake cost that short sampling windows occasionally
   incur (see the evidence-floor discussion in DESIGN.md).
3. **L3 savings trail L2 savings by more than in the paper** for the
   same reason: the LLC's bypass evidence floor is deliberately
   conservative at laptop scale.
4. **Fig. 16's shared-L3 reuse histogram counts resident lines once
   per core.** At the end of a mix every core's `finalize()` records
   the reuse of each line still resident in the shared L3, so with two
   cores those lines enter `l3_stats.reuse_histogram` twice. Energy,
   hit and miss counts are unaffected. The multicore replay reproduces
   the double count on purpose, to stay byte-identical with the
   per-access walk and the end-to-end benchmark's recorded multicore
   digests; fixing it needs a benchmark change that re-records those
   digests.
5. **DRRIP's set dueling never moves.** Nothing calls
   `DrripReplacement.record_miss`, so PSEL stays at `psel_max // 2`
   and follower sets always insert SRRIP-style; only the BRRIP leader
   sets insert BRRIP-style. The §7 replacement ablation therefore runs
   SRRIP with a few BRRIP sets rather than adaptive DRRIP. The SLIP
   replay kernel reproduces this (it reads PSEL once per replay).
   Fixing it changes the DRRIP goldens and the end-to-end benchmark's
   seed-0 digests, so it needs a benchmark change.

## Full results

"""


def main() -> int:
    log_path, out_path = sys.argv[1], sys.argv[2]
    with open(log_path) as handle:
        log = handle.read()
    # Split into experiment sections by the trailing "[name took Xs]".
    pattern = re.compile(r"\n\[(\S+) took ([0-9.]+)s\]\n")
    sections = []
    last = 0
    for match in pattern.finditer(log):
        body = log[last:match.start()].strip("\n")
        sections.append((match.group(1), match.group(2), body))
        last = match.end()
    with open(out_path, "w") as out:
        out.write(PREAMBLE)
        for name, seconds, body in sections:
            out.write(f"### `{name}` ({seconds}s)\n\n")
            out.write("```\n")
            out.write(body.strip())
            out.write("\n```\n\n")
    print(f"wrote {out_path} with {len(sections)} sections")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
