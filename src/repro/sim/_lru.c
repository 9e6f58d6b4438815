/*
 * The LRU-family cache loops of the batched kernels, in global event
 * order over flat per-set arrays.
 *
 *   lru_tlb    the capture kernel's fully associative LRU TLB, which
 *              the SLIP kernel also runs over its SLIP-cache keys;
 *   lru_l1     the capture kernel's uniform LRU L1
 *              (repro.sim.vector_frontend);
 *   lru_level  one L2 or L3 leg of the baseline-kind replay kernel
 *              (repro.sim.vector_replay): baseline, NuRAPID or LRU-PEA.
 *
 * Python loads this file through ctypes (repro.sim.native), hands it
 * numpy arrays and publishes the integer tallies it returns; nothing
 * here allocates Python objects. Each slot of a set holds one line:
 * its tag, LRU stamp, full-life hit count, dirty bit and (below L1)
 * sublevel and demoted flag. LRU stamps come from one clock per level,
 * so within a set they order exactly as the walk's LRU stamps do.
 */

#include <stdint.h>
#include <stdlib.h>

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
 * Writes per event: miss[k] (a probe or writeback that missed),
 * victim[k] (the tag of a dirty line the event evicted from the level).
 * counts (int64) is laid out as: demand misses, metadata misses, reuse
 * histogram [4], then per sublevel metadata hits, insertions, movement
 * reads, movement writes, absorbed writebacks, emitted writebacks, and
 * last demand hits per (core, sublevel). Every count but the histogram
 * of residents covers measured events only.
 */
int lru_level(int kind, int64_t n, const uint8_t *ops, const int64_t *addrs,
              const uint8_t *meas, const int32_t *core, int64_t num_sets,
              int64_t ways, int64_t nsub,
              const int32_t *sub_of_way, const int32_t *ways_per_sub,
              int64_t resident_weight, const double *cum, uint32_t *rng,
              uint8_t *miss, int64_t *victim, int64_t *counts)
{
    int64_t *hist = counts + 2;
    int64_t *mh = counts + 6, *ins = mh + nsub, *mvr = ins + nsub;
    int64_t *mvw = mvr + nsub, *wbin = mvw + nsub, *wbout = wbin + nsub;
    int64_t *dh = wbout + nsub;
    int64_t *occ = calloc((size_t)(num_sets * nsub), sizeof(int64_t));
    int64_t clock = 0;
    int rotor = 0;
    int status = STATUS_OK;
    Slots s;
    if (!occ)
        return STATUS_NO_MEMORY;
    if (slots_alloc(&s, num_sets, ways) != 0) {
        free(occ);
        return STATUS_NO_MEMORY;
    }
    for (int64_t k = 0; k < n && status == STATUS_OK; k++) {
        int op = ops[k], m = meas[k] != 0;
        int64_t tag = addrs[k];
        int64_t set = set_of(tag, num_sets), base = set * ways;
        int64_t *o = occ + set * nsub;
        int64_t j = find(&s, base, ways, tag), slot = -1;
        int t = 0;

        if (op == OP_WRITEBACK) {
            if (j < 0) {
                miss[k] = 1;  /* forwarded below */
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
                    dh[core[k] * nsub + sub]++;
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

        /* Miss: a fill, into `slot`. */
        miss[k] = 1;
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
                victim[k] = s.tag[j];
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
    return status;
}
