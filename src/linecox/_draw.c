/* The compiled draw of a chunk of trials (sampler._draw_chunk).

   One call draws trials start, start + 1, ... of a run, each from its own
   Philox4x64-10 stream keyed (master, stream mod 2**64), in the order and
   by the IEEE operations of the sampler's Python loop, so both give the
   same bits. The stream steps as numpy's Philox steps it (Salmon, Moraes,
   Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
   and the counts come from numpy's own random_poisson (Hoermann, "The
   transformed rejection method for generating Poisson random variables",
   1993), linked from numpy/random/lib/libnpyrandom.a: the code that
   Generator.poisson runs. Build with -O2 -ffp-contract=off and no
   -ffast-math, so that no multiply and add fuse. */

#include <math.h>
#include <stdint.h>

/* numpy/random/bitgen.h; numpy's distributions.h needs Python.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

int64_t random_poisson(bitgen_t *bitgen_state, double lam);

typedef struct {
    uint64_t ctr[4], key[2], block[4];
    int pos;
} philox_t;

static uint64_t philox_next64(void *st)
{
    philox_t *s = st;
    if (s->pos == 4) {
        /* numpy increments the counter before each block of four words */
        if (++s->ctr[0] == 0 && ++s->ctr[1] == 0 && ++s->ctr[2] == 0)
            ++s->ctr[3];
        uint64_t c0 = s->ctr[0], c1 = s->ctr[1], c2 = s->ctr[2], c3 = s->ctr[3];
        uint64_t k0 = s->key[0], k1 = s->key[1];
        for (int round = 0; round < 10; round++) {
            if (round) {
                k0 += 0x9E3779B97F4A7C15ULL;
                k1 += 0xBB67AE8584CAA73BULL;
            }
            __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * c0;
            __uint128_t p1 = (__uint128_t)0xCA5A826395121157ULL * c2;
            c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
            c1 = (uint64_t)p1;
            c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
            c3 = (uint64_t)p0;
        }
        s->block[0] = c0, s->block[1] = c1, s->block[2] = c2, s->block[3] = c3;
        s->pos = 0;
    }
    return s->block[s->pos++];
}

static uint32_t philox_next32(void *st)
{
    return (uint32_t)philox_next64(st);  /* random_poisson draws none */
}

/* Generator.random: the top 53 bits of a word, times 2**-53 */
static double philox_next_double(void *st)
{
    return (double)(philox_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* Draws trials start .. start + n_trials - 1 until one does not fit its
   buffers, and returns how many it drew. Per trial: the second origin
   angle into origin[t * n_origin + 1] (n_origin 2 only), the background
   line count into n_bg[t], the lines' angles and offsets after those of
   the trials before, the point count of each line, its origin lines
   first, and the point positions per unit half chord. used[0] and
   used[1] return the background lines and the points drawn. counts holds
   line_cap + n_trials * n_origin entries. */
int64_t linecox_draw(uint64_t master, uint64_t start, int64_t n_trials,
                     int64_t n_origin, int64_t sine, double mean_lines,
                     double two_mu, double R, double *origin, int64_t *n_bg,
                     double *angle, double *offset, int64_t *counts,
                     int64_t line_cap, double *points, int64_t point_cap,
                     int64_t *used)
{
    const double pi = 3.141592653589793, span = R - -R;
    philox_t s;
    bitgen_t g = {&s, philox_next64, philox_next32, philox_next_double, philox_next64};
    int64_t lines = 0, n_points = 0, t;
    for (t = 0; t < n_trials; t++) {
        s.ctr[0] = s.ctr[1] = s.ctr[2] = s.ctr[3] = 0;
        s.key[0] = master, s.key[1] = start + (uint64_t)t;
        s.pos = 4;
        if (n_origin == 2) {
            double v = philox_next_double(&s);
            origin[2 * t + 1] = sine ? acos(1.0 - 2.0 * v) : pi * v;
        }
        int64_t n = random_poisson(&g, mean_lines);
        if (n > line_cap - lines)
            break;
        double *a = angle + lines, *p = offset + lines;
        for (int64_t i = 0; i < n; i++)
            a[i] = pi * philox_next_double(&s) + 0.0;
        for (int64_t i = 0; i < n; i++)
            p[i] = span * philox_next_double(&s) + -R;
        int64_t *c = counts + lines + t * n_origin, total = 0;
        for (int64_t i = 0; i < n_origin; i++)
            total += c[i] = random_poisson(&g, two_mu * R);
        for (int64_t i = 0; i < n; i++)
            total += c[n_origin + i] = random_poisson(&g, two_mu * sqrt(R * R - p[i] * p[i]));
        if (total > point_cap - n_points)
            break;
        for (int64_t i = 0; i < total; i++)
            points[n_points + i] = 2.0 * philox_next_double(&s) + -1.0;
        n_bg[t] = n;
        lines += n;
        n_points += total;
    }
    used[0] = lines;
    used[1] = n_points;
    return t;
}
