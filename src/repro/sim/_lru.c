/*
 * The cache loops of the batched kernels, in global event order over
 * flat arrays.
 *
 *   lru_tlb     the capture kernel's fully associative LRU TLB, which
 *               the SLIP kernel also runs over its SLIP-cache keys;
 *   lru_l1      the capture kernel's uniform LRU L1
 *               (repro.sim.vector_frontend);
 *   lru_level   one L2 or L3 leg of the baseline-kind replay kernel
 *               (repro.sim.vector_replay): baseline, NuRAPID or
 *               LRU-PEA, emitting the stream the level forwards below;
 *   slip_sweep  phase 1 of the SLIP kernel (repro.sim.vector_replay_slip):
 *               every core's L2 and the shared L3 under LRU, DRRIP or
 *               SHiP, one level routine for all of them, with each
 *               profile key's sampling state machine and EOU argmin.
 *
 * Python loads this file through ctypes (repro.sim.native), hands it
 * numpy arrays and publishes the integer tallies it returns; nothing
 * here allocates Python objects. Each slot of a set holds one line:
 * its tag, LRU stamp (or RRPV), full-life hit count and dirty bit,
 * and, per kernel, its sublevel and demoted flag or its SLIP, chunk,
 * timestamp and profile key. LRU stamps come from one clock per level,
 * so within a set they order exactly as the walk's LRU stamps do.
 * Every random draw is CPython's MT19937 run from the Python
 * generator's own state, which the caller writes back.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define OP_METADATA 1
#define OP_WRITEBACK 2

#define KIND_BASELINE 0
#define KIND_NURAPID 1
#define KIND_LRU_PEA 2

#define STATUS_OK 0
/* A NuRAPID hit below sublevel 0 found sublevel 0 not full. */
#define STATUS_NURAPID_PROMOTION 1
#define STATUS_NO_MEMORY 2

/* ------------------------------------------------------------------ */
/* MT19937, as CPython's random.Random draws it                        */
/* ------------------------------------------------------------------ */
#define MT_N 624
#define MT_M 397

/* state[0..623] are the generator's words and state[624] its index:
 * the layout of random.Random.getstate()[1]. */
static uint32_t mt_next(uint32_t *state)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (state[MT_N] >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (state[kk] & 0x80000000U) | (state[kk + 1] & 0x7fffffffU);
            state[kk] = state[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (state[kk] & 0x80000000U) | (state[kk + 1] & 0x7fffffffU);
            state[kk] = state[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (state[MT_N - 1] & 0x80000000U) | (state[0] & 0x7fffffffU);
        state[MT_N - 1] = state[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        state[MT_N] = 0;
    }
    y = state[state[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.Random.random(): 53 random bits in [0, 1). */
static double mt_random(uint32_t *state)
{
    uint32_t a = mt_next(state) >> 5, b = mt_next(state) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* ------------------------------------------------------------------ */
/* Per-set slots                                                       */
/* ------------------------------------------------------------------ */
typedef struct {
    int64_t *tag;
    int64_t *stamp;
    int64_t *hits;
    uint8_t *dirty;
    uint8_t *valid;     /* lru_level's baseline kind: slot == way */
    uint8_t *sub;       /* below L1: the slot's sublevel */
    uint8_t *demoted;   /* LRU-PEA: victimized first */
    int64_t *count;     /* valid slots per set */
} Slots;

static void slots_free(Slots *s)
{
    free(s->tag);
    free(s->stamp);
    free(s->hits);
    free(s->dirty);
    free(s->valid);
    free(s->sub);
    free(s->demoted);
    free(s->count);
}

static int slots_alloc(Slots *s, int64_t num_sets, int64_t ways)
{
    size_t n = (size_t)(num_sets * ways);
    s->tag = calloc(n, sizeof(int64_t));
    s->stamp = calloc(n, sizeof(int64_t));
    s->hits = calloc(n, sizeof(int64_t));
    s->dirty = calloc(n, 1);
    s->valid = calloc(n, 1);
    s->sub = calloc(n, 1);
    s->demoted = calloc(n, 1);
    s->count = calloc((size_t)num_sets, sizeof(int64_t));
    if (!s->tag || !s->stamp || !s->hits || !s->dirty || !s->valid
            || !s->sub || !s->demoted || !s->count) {
        slots_free(s);
        return -1;
    }
    return 0;
}

/* Python's floor modulo: the set of a line. */
static int64_t set_of(int64_t tag, int64_t num_sets)
{
    int64_t set = tag % num_sets;
    return set < 0 ? set + num_sets : set;
}

/* The valid slot holding tag in [base, base + ways), or -1. */
static int64_t find(const Slots *s, int64_t base, int64_t ways, int64_t tag)
{
    for (int64_t i = base; i < base + ways; i++)
        if (s->valid[i] && s->tag[i] == tag)
            return i;
    return -1;
}

/* The least-recent valid slot in [base, base + ways), of sublevel sub
 * unless sub is -1; with demoted_first, a demoted line beats any other
 * (LRU-PEA). */
static int64_t lru_of(const Slots *s, int64_t base, int64_t ways, int sub,
                      int demoted_first)
{
    int64_t best = -1;
    for (int64_t i = base; i < base + ways; i++) {
        if (!s->valid[i] || (sub >= 0 && s->sub[i] != sub))
            continue;
        if (best < 0)
            best = i;
        else if (demoted_first && s->demoted[i] != s->demoted[best])
            best = s->demoted[i] ? i : best;
        else if (s->stamp[i] < s->stamp[best])
            best = i;
    }
    return best;
}

static int64_t hist_bin(int64_t hits)
{
    return hits < 3 ? hits : 3;
}

/* ------------------------------------------------------------------ */
/* The capture kernel's TLB                                            */
/* ------------------------------------------------------------------ */
/*
 * A fully associative LRU of `entries` pages probed once per access:
 * writes to out the positions whose page misses and returns how many
 * there are. A repeat of the previous page only re-touches the most
 * recent entry, so only the heads of same-page runs are probed.
 */
int64_t lru_tlb(int64_t n, const int64_t *pages, int64_t entries,
                int64_t *out)
{
    int64_t *page = malloc((size_t)(entries > 0 ? entries : 1)
                           * sizeof(int64_t));
    int64_t *stamp = malloc((size_t)(entries > 0 ? entries : 1)
                            * sizeof(int64_t));
    int64_t used = 0, clock = 0, misses = 0;
    if (!page || !stamp) {
        free(page);
        free(stamp);
        return -1;
    }
    for (int64_t k = 0; k < n; k++) {
        int64_t p = pages[k], i;
        if (k > 0 && p == pages[k - 1])
            continue;
        for (i = 0; i < used && page[i] != p; i++)
            ;
        if (i < used) {
            stamp[i] = ++clock;
            continue;
        }
        out[misses++] = k;
        if (entries <= 0)
            continue;
        if (used < entries) {
            i = used++;
        } else {
            i = 0;
            for (int64_t e = 1; e < used; e++)
                if (stamp[e] < stamp[i])
                    i = e;
        }
        page[i] = p;
        stamp[i] = ++clock;
    }
    free(page);
    free(stamp);
    return misses;
}

/* ------------------------------------------------------------------ */
/* The capture kernel's L1                                             */
/* ------------------------------------------------------------------ */
/*
 * A uniform LRU L1, write-allocate: every access probes its set, a
 * miss fills (born dirty on a write) and a full set evicts its unique
 * least-recent line. Way identity is invisible, so a fill takes the
 * set's next free slot. Writes per access: miss[k] (0/1), victim[k]
 * (the dirty victim's tag, else left alone). tally: measured hits,
 * misses, dirty victims, victims, then residents at the end and the
 * reuse histogram 0 / 1 / 2 / >2 (measured evictions plus residents).
 */
int lru_l1(int64_t n, const int64_t *addrs, const uint8_t *writes,
           int64_t warmup, int64_t num_sets, int64_t ways,
           uint8_t *miss, int64_t *victim, int64_t *tally)
{
    Slots s;
    int64_t clock = 0;
    if (slots_alloc(&s, num_sets, ways) != 0)
        return STATUS_NO_MEMORY;
    for (int64_t k = 0; k < n; k++) {
        int64_t tag = addrs[k];
        int64_t set = set_of(tag, num_sets), base = set * ways;
        int m = k >= warmup;
        int64_t j = find(&s, base, ways, tag);
        if (j >= 0) {
            s.hits[j]++;
            if (writes[k])
                s.dirty[j] = 1;
            if (m)
                tally[0]++;
            s.stamp[j] = ++clock;
            continue;
        }
        miss[k] = 1;
        if (m)
            tally[1]++;
        if (s.count[set] == ways) {
            j = lru_of(&s, base, ways, -1, 0);
            if (m) {
                tally[5 + hist_bin(s.hits[j])]++;
                tally[3]++;
            }
            if (s.dirty[j]) {
                victim[k] = s.tag[j];
                if (m)
                    tally[2]++;
            }
        } else {
            j = base + s.count[set]++;
            s.valid[j] = 1;
        }
        s.tag[j] = tag;
        s.dirty[j] = writes[k] != 0;
        s.hits[j] = 0;
        s.stamp[j] = ++clock;
    }
    for (int64_t i = 0; i < num_sets * ways; i++) {
        if (s.valid[i]) {
            tally[4]++;
            tally[5 + hist_bin(s.hits[i])]++;
        }
    }
    slots_free(&s);
    return STATUS_OK;
}

/* ------------------------------------------------------------------ */
/* One back-end level of a baseline-kind replay                        */
/* ------------------------------------------------------------------ */
/*
 * Replays one level's event stream (ops: 0 demand, 1 metadata, 2
 * writeback) in global order. meas[k] marks measured events and
 * core[k] the core that caused event k (all 0 but in a mix's shared
 * L3). sub_of_way and ways_per_sub give the sublevel geometry; cum
 * holds LRU-PEA's cumulative sublevel weights and rng its generator
 * state (see mt_next), which the call advances one draw per fill.
 * resident_weight is what each line resident at the end adds to the
 * reuse histogram.
 *
 * Per event, the level forwards below the access that missed (a
 * forwarded writeback stays a writeback), then the writeback of the
 * dirty line its fill evicted: the order the walk issues them. With
 * emit set the call writes that stream out: out_ops, out_addrs and
 * out_src (the index k of the event behind each one) hold up to 2n
 * entries. The return value is the length of the stream, or minus a
 * nonzero status.
 *
 * counts (int64) is laid out as: demand misses, metadata misses,
 * forwarded writebacks, reuse histogram [4], then per sublevel
 * metadata hits, insertions, movement reads, movement writes, absorbed
 * writebacks, emitted writebacks, and last per core its demand hits
 * per sublevel and the demand, metadata and writeback events it
 * forwarded below. Every count but the histogram of residents covers
 * measured events only.
 */
/* One event into the stream below, caused by event k. */
#define EMIT(op_, addr_)                                                \
    do {                                                                \
        if (m)                                                          \
            below[core[k] * per_core + (op_)]++;                        \
        if (emit) {                                                     \
            out_ops[emitted] = (uint8_t)(op_);                          \
            out_addrs[emitted] = (addr_);                               \
            out_src[emitted] = (int32_t)k;                              \
        }                                                               \
        emitted++;                                                      \
    } while (0)

int64_t lru_level(int kind, int64_t n, const uint8_t *ops,
                  const int64_t *addrs, const uint8_t *meas,
                  const int32_t *core, int64_t num_sets, int64_t ways,
                  int64_t nsub, const int32_t *sub_of_way,
                  const int32_t *ways_per_sub, int64_t resident_weight,
                  const double *cum, uint32_t *rng, int emit,
                  uint8_t *out_ops, int64_t *out_addrs, int32_t *out_src,
                  int64_t *counts)
{
    int64_t *hist = counts + 3;
    int64_t *mh = counts + 7, *ins = mh + nsub, *mvr = ins + nsub;
    int64_t *mvw = mvr + nsub, *wbin = mvw + nsub, *wbout = wbin + nsub;
    int64_t per_core = nsub + 3, *dh = wbout + nsub, *below = dh + nsub;
    int64_t *occ = calloc((size_t)(num_sets * nsub), sizeof(int64_t));
    int64_t clock = 0, emitted = 0;
    int rotor = 0;
    int status = STATUS_OK;
    Slots s;
    if (!occ)
        return -STATUS_NO_MEMORY;
    if (slots_alloc(&s, num_sets, ways) != 0) {
        free(occ);
        return -STATUS_NO_MEMORY;
    }
    for (int64_t k = 0; k < n && status == STATUS_OK; k++) {
        int op = ops[k], m = meas[k] != 0;
        int64_t tag = addrs[k];
        int64_t set = set_of(tag, num_sets), base = set * ways;
        int64_t *o = occ + set * nsub;
        int64_t j = find(&s, base, ways, tag), slot = -1;
        int t = 0;

        if (op == OP_WRITEBACK) {
            if (j < 0) {  /* forwarded below */
                EMIT(OP_WRITEBACK, tag);
                if (m)
                    counts[2]++;
            } else {
                s.dirty[j] = 1;
                if (m)
                    wbin[s.sub[j]]++;
            }
            continue;
        }

        if (j >= 0) {  /* hit, booked at the pre-promotion sublevel */
            int sub = s.sub[j];
            s.hits[j]++;
            if (m) {
                if (op == OP_METADATA)
                    mh[sub]++;
                else
                    dh[core[k] * per_core + sub]++;
            }
            s.stamp[j] = ++clock;
            if (kind == KIND_BASELINE || sub == 0)
                continue;
            /* Promotion: NuRAPID swaps with sublevel 0's LRU line,
             * LRU-PEA moves one sublevel nearer, into a free way or
             * swapping with that sublevel's demoted-first LRU line. */
            t = kind == KIND_NURAPID ? 0 : sub - 1;
            if (o[t] < ways_per_sub[t]) {
                if (kind == KIND_NURAPID) {
                    status = STATUS_NURAPID_PROMOTION;
                    break;
                }
                o[t]++;
                o[sub]--;
                if (m) {
                    mvr[sub]++;
                    mvw[t]++;
                }
            } else {
                int64_t d = lru_of(&s, base, ways, t,
                                   kind == KIND_LRU_PEA);
                s.sub[d] = (uint8_t)sub;
                s.demoted[d] = 1;
                if (m) {
                    mvr[sub]++;
                    mvw[t]++;
                    mvr[t]++;
                    mvw[sub]++;
                }
            }
            s.sub[j] = (uint8_t)t;
            s.demoted[j] = 0;
            continue;
        }

        /* Miss: forwarded below, then a fill, into `slot`. */
        EMIT(op, tag);
        if (m)
            counts[op == OP_METADATA ? 1 : 0]++;
        j = -1;  /* set when a line leaves the level to make room */
        if (kind == KIND_BASELINE) {
            /* The level's allocation rotor advances once per fill and
             * starts the scan for an invalid way; a full set evicts its
             * LRU line and the fill takes its way. */
            rotor = (rotor + 1) % 64;
            if (s.count[set] == ways) {
                j = lru_of(&s, base, ways, -1, 0);
            } else {
                int64_t w = base + rotor % ways;
                while (s.valid[w])
                    w = w + 1 == base + ways ? base : w + 1;
                s.count[set]++;
                s.sub[w] = (uint8_t)sub_of_way[w - base];
                slot = w;
            }
        } else if (kind == KIND_NURAPID) {
            /* Into sublevel 0; when it is full, its LRU line is
             * demoted one sublevel deeper, cascading, and the line
             * falling off the last sublevel leaves the level. */
            if (o[0] < ways_per_sub[0]) {
                o[0]++;
                slot = base + s.count[set]++;
            } else {
                int64_t cur = lru_of(&s, base, ways, 0, 0);
                int ts;
                for (ts = 1; ts < nsub; ts++) {
                    int64_t d = -1;
                    if (o[ts] < ways_per_sub[ts])
                        o[ts]++;
                    else
                        d = lru_of(&s, base, ways, ts, 0);
                    s.sub[cur] = (uint8_t)ts;
                    if (m) {
                        mvr[ts - 1]++;
                        mvw[ts]++;
                    }
                    if (d < 0)
                        break;
                    cur = d;
                }
                if (ts == nsub)
                    j = cur;
                else
                    slot = base + s.count[set]++;
            }
        } else {
            /* LRU-PEA: random.Random.choices(range(nsub), weights, k=1)
             * over the sublevel sizes, then the sublevel's free way or
             * its demoted-first LRU line. */
            double u = mt_random(rng) * cum[nsub - 1];
            t = (int)nsub - 1;
            for (int i = 0; i < nsub - 1; i++) {
                if (u < cum[i]) {
                    t = i;
                    break;
                }
            }
            if (o[t] < ways_per_sub[t]) {
                o[t]++;
                slot = base + s.count[set]++;
            } else {
                j = lru_of(&s, base, ways, t, 1);
            }
        }
        if (j >= 0) {  /* the line in slot j leaves the level */
            if (m)
                hist[hist_bin(s.hits[j])]++;
            if (s.dirty[j]) {
                EMIT(OP_WRITEBACK, s.tag[j]);
                if (m)
                    wbout[s.sub[j]]++;
            }
            slot = j;
        }
        if (kind == KIND_NURAPID)
            s.sub[slot] = 0;
        else if (kind == KIND_LRU_PEA)
            s.sub[slot] = (uint8_t)t;
        s.valid[slot] = 1;
        s.tag[slot] = tag;
        s.dirty[slot] = 0;
        s.hits[slot] = 0;
        s.demoted[slot] = 0;
        s.stamp[slot] = ++clock;
        if (m)
            ins[s.sub[slot]]++;
    }
    for (int64_t i = 0; i < num_sets * ways; i++)
        if (s.valid[i])
            hist[hist_bin(s.hits[i])] += resident_weight;
    slots_free(&s);
    free(occ);
    return status == STATUS_OK ? emitted : -status;
}
#undef EMIT

/* ------------------------------------------------------------------ */
/* The SLIP kernel's sweep                                             */
/* ------------------------------------------------------------------ */
/*
 * Phase 1 of repro.sim.vector_replay_slip: one merged-order sweep over
 * every core's reference-metadata events and captured L1 misses, which
 * drives each core's L2 and the shared L3 (a single core's own L3 is
 * the one-core case). Every level below L1 runs the same routine: a
 * fill goes into chunk C0 of its page's SLIP and each displaced line
 * cascades to its SLIP's next chunk until one leaves the level; a hit
 * on a sampling page records its reuse distance, and a demand miss of
 * a sampling page records a miss sample (PAPER.md, Sections 3-4).
 *
 * A level is one descriptor row of LV_FIELDS int64s (built by
 * vector_replay_slip._Levels), laid out by the enum below: its geometry,
 * the scalars the call reads in and writes back (access counter,
 * allocation rotor, LRU clock), and offsets into the shared pools:
 *
 *   lines   mutable int64: per level the line columns (tag, stamp,
 *           timestamp, hits, SLIP id, chunk, key id, dirty; tag -1
 *           marks an invalid slot, key -1 a metadata line), and a SHiP
 *           level's SHCT;
 *   tables  read-only int64: per level the sublevel of each way, the
 *           SLIP records, the reuse-distance bin boundaries and a
 *           DRRIP level's BRRIP flag per set;
 *   rng     per level the MT19937 state of its RRIP policy, then per
 *           core its sampler's;
 *   tally   per level and core the measured counts (T_* below), then
 *           per core its runtime's (K_* below).
 *
 * The SLIP record of id s sits at slips + s * (2 + nsub): its chunk
 * count, its insertion class, then the offset (into tables) of each
 * chunk's record: n, g, the chunk's n ways, then, when an RRIP level
 * splits the chunk by sublevel, the g cumulative group sizes and the n
 * ways regrouped, so that group i is grouped[cum[i-1] .. cum[i]).
 *
 * The page table is one row of page_width int64s per profile key (P_*
 * below): the key's entry exists, it is sampling, its period samples,
 * its sampling visits, its distribution line, the SLIP id per level,
 * and then each level's distribution bins. The sweep owns the rows:
 * samples change the bins, and at each reference event with a key
 * key_fetch runs the key's state machine (PAPER.md, Section 4.2) and,
 * when the page stabilizes, each level's EOU (Section 4.4).
 *
 * A core is one row of C_FIELDS int64s: its runtime's constants, the
 * sampler's two transition probabilities (as double bits), offsets of
 * its sampler's state in rng and of its counters in tally, and per
 * level the offset in tables of its EOU record: the Default SLIP id,
 * the ABP evidence floor, the cold-distribution floor, the number of
 * EEUs eligible on thin and on confident evidence, then those EEUs
 * (thin ones first), each its SLIP id and one coefficient per bin.
 */

/* Descriptor fields: keep in the order of vector_replay_slip's
 * LEVEL_FIELDS. */
enum {
    LV_SETS, LV_WAYS, LV_NSUB, LV_WRAP, LV_GRANULE, LV_TS_MASK, LV_MAX_HIT,
    LV_COUNTER, LV_ROTOR, LV_CLOCK, LV_REPLACEMENT, LV_RRPV_MAX,
    LV_META_SLIP, LV_SELECT, LV_BIN_COLUMN, LV_LINES, LV_SHCT,
    LV_SHCT_SIZE, LV_SHCT_MAX, LV_SIG_SHIFT, LV_LONG_PROB, LV_SUBLEVELS,
    LV_SLIPS, LV_BOUNDS, LV_BRRIP, LV_RNG, LV_TALLY, LV_FIELDS
};

#define REPL_LRU 0
#define REPL_DRRIP 1
#define REPL_SHIP 2

/* Page-table row fields; the bins follow at each level's column. */
enum { P_EXISTS, P_SAMPLING, P_SAMPLES, P_VISITS, P_LINE, P_POLICY };
/* Per-core fields: always_sample, counter max, default SLIP id per
 * level, EOU record per level, the sampler's probabilities, the
 * stabilize floor, the sampler state and the counters. */
enum {
    C_ALWAYS, C_COUNTER_MAX, C_DEFAULT, C_EOU = C_DEFAULT + 2,
    C_TO_STABLE = C_EOU + 2, C_TO_SAMPLING, C_STABILIZE, C_RNG, C_STATS,
    C_FIELDS
};
/* An EOU record's header; the EEUs follow. */
enum { E_DEFAULT, E_MIN_ABP, E_WARM, E_THIN, E_CONFIDENT, E_EEUS };
/* Per-core runtime counters: RuntimeStats, then EouStats per level. */
enum {
    K_DISTRIBUTIONS, K_RECOMPUTATIONS, K_TO_STABLE, K_TO_SAMPLING,
    K_OPTIMIZATIONS, K_BLOCK_CYCLES = K_OPTIMIZATIONS + 2,
    K_FIELDS = K_BLOCK_CYCLES + 2
};
/* Per-(level, core) tally fields; per-sublevel blocks follow T_SUB. */
enum {
    T_DEMAND_MISSES, T_METADATA_MISSES, T_FORWARDED, T_BYPASSES,
    T_CLASS, T_HIST = T_CLASS + 4, T_SUB = T_HIST + 4
};
enum { S_DH, S_MH, S_INS, S_MVR, S_MVW, S_WBIN, S_WBOUT, S_BLOCKS };

/* SlipPageEntry's 6-bit period_samples and 2-bit sampling_visits
 * counters, and the visits a page needs before it may stabilize. */
#define SAMPLES_MAX 63
#define VISITS_MAX 3
#define VISITS_TO_STABILIZE 2

typedef struct {
    int always;
    int64_t counter_max, defaults[2], stabilize;
    double to_stable, to_sampling;
    const int64_t *eou[2];
    uint32_t *rng;
    int64_t *stats;
} Core;

typedef struct {
    int64_t *desc;
    int64_t sets, ways, nsub, wrap, granule, ts_mask, max_hit;
    int64_t counter, rotor, clock;
    int replacement;
    int64_t rrpv_max, meta_slip, select, bin_column, nbins, tally_width;
    int64_t *tag, *stamp, *ts, *hits, *slip, *chunk, *key, *dirty;
    int64_t *shct, shct_size, shct_max, sig_shift;
    double long_prob;
    const int64_t *tables, *sub, *slips, *bounds, *brrip;
    uint32_t *rng;
    int64_t *tally;
} Level;

/* The per-sweep context every level routine reads. */
typedef struct {
    int64_t *pages, page_width;
    const Core *cores;
} Sweep;

static void core_load(Core *C, const int64_t *c, const int64_t *tables,
                      uint32_t *rng, int64_t *tally)
{
    C->always = c[C_ALWAYS] != 0;
    C->counter_max = c[C_COUNTER_MAX];
    C->stabilize = c[C_STABILIZE];
    for (int i = 0; i < 2; i++) {
        C->defaults[i] = c[C_DEFAULT + i];
        C->eou[i] = tables + c[C_EOU + i];
    }
    memcpy(&C->to_stable, &c[C_TO_STABLE], sizeof(double));
    memcpy(&C->to_sampling, &c[C_TO_SAMPLING], sizeof(double));
    C->rng = rng + c[C_RNG];
    C->stats = tally + c[C_STATS];
}

static void level_load(Level *L, int64_t *d, int64_t *lines,
                       const int64_t *tables, uint32_t *rng, int64_t *tally)
{
    int64_t size;
    L->desc = d;
    L->sets = d[LV_SETS];
    L->ways = d[LV_WAYS];
    L->nsub = d[LV_NSUB];
    L->wrap = d[LV_WRAP];
    L->granule = d[LV_GRANULE];
    L->ts_mask = d[LV_TS_MASK];
    L->max_hit = d[LV_MAX_HIT];
    L->counter = d[LV_COUNTER];
    L->rotor = d[LV_ROTOR];
    L->clock = d[LV_CLOCK];
    L->replacement = (int)d[LV_REPLACEMENT];
    L->rrpv_max = d[LV_RRPV_MAX];
    L->meta_slip = d[LV_META_SLIP];
    L->select = d[LV_SELECT];
    L->bin_column = d[LV_BIN_COLUMN];
    L->nbins = L->nsub + 1;
    L->tally_width = T_SUB + S_BLOCKS * L->nsub;
    size = L->sets * L->ways;
    L->tag = lines + d[LV_LINES];
    L->stamp = L->tag + size;
    L->ts = L->stamp + size;
    L->hits = L->ts + size;
    L->slip = L->hits + size;
    L->chunk = L->slip + size;
    L->key = L->chunk + size;
    L->dirty = L->key + size;
    L->shct = lines + d[LV_SHCT];
    L->shct_size = d[LV_SHCT_SIZE];
    L->shct_max = d[LV_SHCT_MAX];
    L->sig_shift = d[LV_SIG_SHIFT];
    memcpy(&L->long_prob, &d[LV_LONG_PROB], sizeof(double));
    L->tables = tables;
    L->sub = tables + d[LV_SUBLEVELS];
    L->slips = tables + d[LV_SLIPS];
    L->bounds = tables + d[LV_BOUNDS];
    L->brrip = tables + d[LV_BRRIP];
    L->rng = rng + d[LV_RNG];
    L->tally = tally + d[LV_TALLY];
}

static void level_store(const Level *L)
{
    L->desc[LV_COUNTER] = L->counter;
    L->desc[LV_ROTOR] = L->rotor;
    L->desc[LV_CLOCK] = L->clock;
}

/* Tick the level's access counter T; returns the set's first slot. */
static int64_t level_tick(Level *L, int64_t addr)
{
    if (++L->counter == L->wrap)
        L->counter = 0;
    return set_of(addr, L->sets) * L->ways;
}

static int64_t level_find(const Level *L, int64_t base, int64_t addr)
{
    for (int64_t f = base; f < base + L->ways; f++)
        if (L->tag[f] == addr)
            return f;
    return -1;
}

static int64_t level_now(const Level *L)
{
    return (L->counter / L->granule) & L->ts_mask;
}

static int64_t ship_signature(const Level *L, int64_t addr)
{
    return set_of(addr >> L->sig_shift, L->shct_size);
}

/* One sample into a key's distribution at this level:
 * ReuseDistanceDistribution.record_bin, which halves every bin when
 * the sampled one would overflow, and the saturating period count. */
static void record_sample(const Level *L, const Sweep *S, int64_t *row,
                          int64_t core, int64_t bin)
{
    int64_t *bins = row + L->bin_column;
    if (bins[bin] >= S->cores[core].counter_max)
        for (int64_t i = 0; i < L->nbins; i++)
            bins[i] >>= 1;
    bins[bin]++;
    if (row[P_SAMPLES] < SAMPLES_MAX)
        row[P_SAMPLES]++;
}

/* The row of a data line's key whose samples are being collected, or
 * NULL: the entry exists and is sampling (always, with always_sample). */
static int64_t *sampled_row(const Sweep *S, int64_t core, int64_t key)
{
    int64_t *row;
    if (key < 0)
        return NULL;
    row = S->pages + key * S->page_width;
    if (!row[P_EXISTS])
        return NULL;
    if (!row[P_SAMPLING] && !S->cores[core].always)
        return NULL;
    return row;
}

/* A demand or metadata probe; 1 on a hit. */
static int level_access(Level *L, const Sweep *S, int64_t core,
                        int64_t addr, int metadata)
{
    int64_t base = level_tick(L, addr), f = level_find(L, base, addr);
    int64_t *t = L->tally + core * L->tally_width, *row, now;
    if (f < 0) {
        t[metadata ? T_METADATA_MISSES : T_DEMAND_MISSES]++;
        return 0;
    }
    L->hits[f]++;
    t[T_SUB + (metadata ? S_MH : S_DH) * L->nsub + L->sub[f - base]]++;
    if (L->replacement == REPL_LRU) {
        L->stamp[f] = ++L->clock;
    } else {
        L->stamp[f] = 0;
        if (L->replacement == REPL_SHIP && L->hits[f] == 1) {
            /* The first reuse since the fill trains the SHCT. */
            int64_t sig = ship_signature(L, L->tag[f]);
            if (L->shct[sig] < L->shct_max)
                L->shct[sig]++;
        }
    }
    now = level_now(L);
    row = sampled_row(S, core, L->key[f]);
    if (row) {
        /* The stamp's distance, clamped below the level's capacity: a
         * reference that hit had a shorter stack distance. */
        int64_t distance = ((now - L->ts[f]) & L->ts_mask) * L->granule;
        int64_t bin = 0;
        if (distance > L->max_hit)
            distance = L->max_hit;
        while (bin < L->nsub && L->bounds[bin] <= distance)
            bin++;
        record_sample(L, S, row, core, bin);
    }
    L->ts[f] = now;
    return 1;
}

/* A writeback probe: absorbed by a resident copy (1), else forwarded. */
static int level_writeback(Level *L, int64_t core, int64_t addr)
{
    int64_t base = level_tick(L, addr), f = level_find(L, base, addr);
    int64_t *t = L->tally + core * L->tally_width;
    if (f < 0) {
        t[T_FORWARDED]++;
        return 0;
    }
    L->dirty[f] = 1;
    t[T_SUB + S_WBIN * L->nsub + L->sub[f - base]]++;
    return 1;
}

/* CacheLevel.choose_victim over one chunk record: the first invalid
 * way in the order the allocation rotor rotates the chunk to, else
 * the LRU way in that order, or under RRIP the sublevel draw over the
 * unrotated chunk (random.Random.choices with cum_weights) and then
 * find-or-age. */
static int64_t level_victim(Level *L, int64_t base, const int64_t *chunk)
{
    int64_t n = chunk[0], g = chunk[1], r = L->rotor % n, best = -1;
    const int64_t *ways = chunk + 2, *group = ways;
    for (int64_t i = 0; i < n; i++) {
        int64_t w = ways[(r + i) % n];
        if (L->tag[base + w] < 0)
            return w;
        if (L->replacement == REPL_LRU
                && (best < 0 || L->stamp[base + w] < L->stamp[base + best]))
            best = w;
    }
    if (L->replacement == REPL_LRU)
        return best;
    if (g > 0) {
        const int64_t *cum = ways + n;
        double u = mt_random(L->rng) * (double)cum[g - 1];
        int64_t i = 0, lo;
        while (i < g - 1 && !(u < (double)cum[i]))
            i++;
        lo = i ? cum[i - 1] : 0;
        group = cum + g + lo;
        n = cum[i] - lo;
    }
    for (;;) {
        for (int64_t i = 0; i < n; i++)
            if (L->stamp[base + group[i]] >= L->rrpv_max)
                return group[i];
        for (int64_t i = 0; i < n; i++)
            L->stamp[base + group[i]]++;
    }
}

/* The fill after a miss: SlipPlacement.fill and its cascade. Takes the
 * miss sample of a data line's key, picks the SLIP (the Default SLIP
 * for metadata lines, keys without an entry and sampling keys) and
 * inserts into its chunk C0, or bypasses. Each displaced line moves to
 * its SLIP's next chunk until one leaves the level; returns that
 * line's address if it leaves dirty, else -1. */
static int64_t level_fill(Level *L, const Sweep *S, int64_t core,
                          int64_t addr, int64_t key)
{
    const Core *C = S->cores + core;
    int64_t *t = L->tally + core * L->tally_width;
    int64_t *sub_tally = t + T_SUB;
    int64_t slip = L->meta_slip, base, guard, src = -1;
    const int64_t *record;
    /* The line moving in: first the filled one, then each victim. */
    int64_t m_tag = addr, m_dirty = 0, m_chunk = 0, m_ts, m_hits = 0;
    int64_t m_key = key, m_stamp = 0;
    if (key >= 0) {
        int64_t *row = S->pages + key * S->page_width;
        slip = C->defaults[L->select];
        if (row[P_EXISTS]) {
            if (row[P_SAMPLING] || C->always)
                record_sample(L, S, row, core, L->nbins - 1);
            if (!row[P_SAMPLING])
                slip = row[P_POLICY + L->select];
        }
    }
    record = L->slips + slip * (2 + L->nsub);
    t[T_CLASS + record[1]]++;
    if (record[0] == 0) {  /* the All-Bypass Policy: never dirty here */
        t[T_BYPASSES]++;
        return -1;
    }
    base = set_of(addr, L->sets) * L->ways;
    guard = L->ways * (L->nsub + 1);
    m_ts = level_now(L);
    for (;;) {
        int64_t w, f, v_tag, v_slip = 0, v_chunk = 0, moves = 0;
        int64_t v_dirty = 0, v_ts = 0, v_hits = 0, v_key = 0, v_stamp = 0;
        L->rotor = (L->rotor + 1) % 64;
        w = level_victim(L, base, L->tables + record[2 + m_chunk]);
        f = base + w;
        v_tag = L->tag[f];
        if (v_tag >= 0) {
            guard--;
            v_slip = L->slip[f];
            v_chunk = L->chunk[f] + 1;
            moves = guard > 0
                && v_chunk < L->slips[v_slip * (2 + L->nsub)];
            v_dirty = L->dirty[f];
            v_ts = L->ts[f];
            v_hits = L->hits[f];
            v_key = L->key[f];
            v_stamp = L->stamp[f];
        }
        L->tag[f] = m_tag;
        L->dirty[f] = m_dirty;
        L->slip[f] = slip;
        L->chunk[f] = m_chunk;
        L->ts[f] = m_ts;
        L->hits[f] = m_hits;
        L->key[f] = m_key;
        if (src < 0) {
            if (L->replacement == REPL_LRU) {
                m_stamp = ++L->clock;
            } else if (L->replacement == REPL_DRRIP) {
                m_stamp = L->rrpv_max - 1;
                if (L->brrip[base / L->ways]
                        && !(mt_random(L->rng) < L->long_prob))
                    m_stamp = L->rrpv_max;
            } else {
                m_stamp = L->shct[ship_signature(L, addr)] == 0
                    ? L->rrpv_max : L->rrpv_max - 1;
            }
            sub_tally[S_INS * L->nsub + L->sub[w]]++;
        } else {
            sub_tally[S_MVR * L->nsub + L->sub[src]]++;
            sub_tally[S_MVW * L->nsub + L->sub[w]]++;
        }
        L->stamp[f] = m_stamp;
        if (v_tag < 0)
            return -1;
        if (!moves) {  /* the victim leaves the level */
            t[T_HIST + hist_bin(v_hits)]++;
            if (L->replacement == REPL_SHIP && v_hits == 0) {
                int64_t sig = ship_signature(L, v_tag);
                if (L->shct[sig] > 0)
                    L->shct[sig]--;
            }
            if (!v_dirty)
                return -1;
            sub_tally[S_WBOUT * L->nsub + L->sub[w]]++;
            return v_tag;
        }
        m_tag = v_tag;
        m_dirty = v_dirty;
        m_ts = v_ts;
        m_hits = v_hits;
        m_key = v_key;
        m_stamp = v_stamp;
        m_chunk = v_chunk;
        slip = v_slip;
        record = L->slips + slip * (2 + L->nsub);
        src = w;
    }
}

static int64_t bin_sum(const Level *L, const int64_t *row)
{
    int64_t sum = 0;
    for (int64_t i = 0; i < L->nbins; i++)
        sum += row[L->bin_column + i];
    return sum;
}

/* EnergyOptimizerUnit._argmin: the Default SLIP for a cold
 * distribution, else the first EEU, in order, whose dot product with
 * the raw bins is strictly least, among those eligible on the page's
 * evidence. */
static int64_t eou_argmin(const Level *L, const int64_t *eou,
                          const int64_t *row)
{
    const int64_t *bins = row + L->bin_column, *eeu = eou + E_EEUS;
    int64_t n = eou[E_THIN], best = eou[E_DEFAULT], least = 0;
    if (bin_sum(L, row) < eou[E_WARM])
        return best;
    if (row[P_SAMPLES] >= eou[E_MIN_ABP]) {
        eeu += n * (1 + L->nbins);
        n = eou[E_CONFIDENT];
    }
    for (int64_t i = 0; i < n; i++, eeu += 1 + L->nbins) {
        int64_t energy = 0;
        for (int64_t b = 0; b < L->nbins; b++)
            energy += eeu[1 + b] * bins[b];
        if (i == 0 || energy < least) {
            best = eeu[0];
            least = energy;
        }
    }
    return best;
}

/* SlipRuntime._is_warm: some level holds enough samples to stabilize. */
static int page_warm(Level *const levels[2], const Core *C,
                     const int64_t *row)
{
    return bin_sum(levels[0], row) >= C->stabilize
        || bin_sum(levels[1], row) >= C->stabilize;
}

/* SlipRuntime._recompute_policies: each level's EOU picks its SLIP. */
static void recompute(Level *const levels[2], const Core *C, int64_t *row)
{
    for (int i = 0; i < 2; i++) {
        const Level *L = levels[i];
        row[P_POLICY + L->select] = eou_argmin(L, C->eou[L->select], row);
        C->stats[K_OPTIMIZATIONS + L->select]++;
        C->stats[K_BLOCK_CYCLES + L->select]++;
    }
    C->stats[K_RECOMPUTATIONS]++;
}

/* The runtime's step at a profile-key miss (SlipRuntime): a key with
 * no entry gets one, sampling, then the sampler redraws its state
 * (Section 4.2); returns the distribution line to fetch, or -1. */
static int64_t key_fetch(Level *const levels[2], const Sweep *S,
                         int64_t core, int64_t key)
{
    const Core *C = S->cores + core;
    int64_t *row = S->pages + key * S->page_width;
    if (!row[P_EXISTS]) {  /* _new_entry: sampling, Default SLIPs */
        row[P_EXISTS] = 1;
        row[P_SAMPLING] = 1;
        row[P_SAMPLES] = 0;
        row[P_VISITS] = 0;
        row[P_POLICY] = C->defaults[0];
        row[P_POLICY + 1] = C->defaults[1];
        memset(row + P_POLICY + 2, 0,
               (size_t)(S->page_width - P_POLICY - 2) * sizeof(int64_t));
    }
    if (C->always) {  /* fetch and refresh on every miss */
        C->stats[K_DISTRIBUTIONS]++;
        if (page_warm(levels, C, row))
            recompute(levels, C, row);
        row[P_SAMPLING] = 0;
        return row[P_LINE];
    }
    if (!row[P_SAMPLING]) {
        if (mt_random(C->rng) < C->to_sampling) {
            row[P_SAMPLING] = 1;
            row[P_VISITS] = 0;
            row[P_SAMPLES] = 0;
            C->stats[K_TO_SAMPLING]++;
        }
        return -1;
    }
    C->stats[K_DISTRIBUTIONS]++;
    if (row[P_VISITS] < VISITS_MAX)
        row[P_VISITS]++;
    /* Don't freeze a policy off an empty or single-visit profile. */
    if (mt_random(C->rng) < C->to_stable
            && row[P_VISITS] >= VISITS_TO_STABILIZE
            && page_warm(levels, C, row)) {
        recompute(levels, C, row);
        row[P_SAMPLING] = 0;
        row[P_VISITS] = 0;
        row[P_SAMPLES] = 0;
        C->stats[K_TO_STABLE]++;
    }
    return row[P_LINE];
}

/* One event below L1 (MemoryHierarchy._access_below_l1): L2 access,
 * then L3 access, L3 fill and L2 fill, whose dirty victims go to DRAM
 * and to L3. key is -1 for a metadata line. */
static void below_l1(Level *l2, Level *l3, const Sweep *S, int64_t core,
                     int64_t addr, int64_t key)
{
    int64_t victim;
    if (level_access(l2, S, core, addr, key < 0))
        return;
    if (!level_access(l3, S, core, addr, key < 0))
        level_fill(l3, S, core, addr, key);
    victim = level_fill(l2, S, core, addr, key);
    if (victim >= 0)
        level_writeback(l3, core, victim);
}

/*
 * Sweeps the events at positions below stop, from and to cursor
 * (the next reference event, the next L1 miss). misses holds five
 * columns of nmiss + 1 entries (position, core, line, key id, the L1
 * victim's writeback or -1), refs four of nref + 1 (position, core,
 * key id or -1, PTE line or -1); each position column ends with a
 * sentinel at or above every stop. A position is access index * cores
 * + core, so events run in the walk's order: access index, core, the
 * reference event before the L1 miss. levels holds ncores + 1
 * descriptor rows: each core's L2, then the L3; cores holds ncores
 * core rows.
 */
int slip_sweep(int64_t ncores, int64_t stop, int64_t *cursor,
               const int64_t *misses, int64_t nmiss, const int64_t *refs,
               int64_t nref, const int64_t *cores, int64_t *pages,
               int64_t page_width, int64_t *levels, int64_t *lines,
               const int64_t *tables, uint32_t *rng, int64_t *tally)
{
    const int64_t *miss_at = misses, *miss_core = misses + (nmiss + 1);
    const int64_t *miss_addr = miss_core + (nmiss + 1);
    const int64_t *miss_key = miss_addr + (nmiss + 1);
    const int64_t *miss_wb = miss_key + (nmiss + 1);
    const int64_t *ref_at = refs, *ref_core = refs + (nref + 1);
    const int64_t *ref_key = ref_core + (nref + 1);
    const int64_t *ref_pte = ref_key + (nref + 1);
    int64_t ri = cursor[0], mi = cursor[1];
    Sweep S;
    Level *lv = malloc((size_t)(ncores + 1) * sizeof(Level)), *l3;
    Core *core_of = malloc((size_t)ncores * sizeof(Core));
    if (!lv || !core_of) {
        free(lv);
        free(core_of);
        return STATUS_NO_MEMORY;
    }
    for (int64_t i = 0; i <= ncores; i++)
        level_load(&lv[i], levels + i * LV_FIELDS, lines, tables, rng, tally);
    for (int64_t i = 0; i < ncores; i++)
        core_load(&core_of[i], cores + i * C_FIELDS, tables, rng, tally);
    l3 = &lv[ncores];
    S.pages = pages;
    S.page_width = page_width;
    S.cores = core_of;
    for (;;) {
        int64_t rk = ref_at[ri], mk = miss_at[mi], k = rk < mk ? rk : mk;
        if (k >= stop)
            break;
        if (rk == k) {
            /* MemoryHierarchy.access's on_reference: the key's state
             * machine runs, then the PTE line and the fetched
             * distribution line travel below L1. */
            int64_t core = ref_core[ri], line = -1;
            if (ref_key[ri] >= 0) {
                Level *const pair[2] = {&lv[core], l3};
                line = key_fetch(pair, &S, core, ref_key[ri]);
            }
            if (ref_pte[ri] >= 0)
                below_l1(&lv[core], l3, &S, core, ref_pte[ri], -1);
            if (line >= 0)
                below_l1(&lv[core], l3, &S, core, line, -1);
            ri++;
        }
        if (mk == k) {
            int64_t core = miss_core[mi], wb = miss_wb[mi];
            below_l1(&lv[core], l3, &S, core, miss_addr[mi], miss_key[mi]);
            /* The L1 victim's writeback (_writeback_below_l1). */
            if (wb >= 0 && !level_writeback(&lv[core], core, wb))
                level_writeback(l3, core, wb);
            mi++;
        }
    }
    for (int64_t i = 0; i <= ncores; i++)
        level_store(&lv[i]);
    cursor[0] = ri;
    cursor[1] = mi;
    free(lv);
    free(core_of);
    return STATUS_OK;
}
