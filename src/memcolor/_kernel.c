/* Native forms of memcolor's two per-element replay loops, loaded with
 * ctypes by memcolor._native.  MemoryHierarchy._step and the swap-remove loop
 * of Allocator._new_frames are the Python references they are tested
 * against.
 *
 * Cache sets are flat arrays of `ways` slots, way 0 the least recent, with
 * a fill count per set.  Apps are small ints; a bank never opened has row
 * -1.  Outcome codes are those of memcolor.hierarchy. */

#include <stdint.h>
#include <string.h>

enum { PRIVATE_HIT, LLC_HIT, ROW_HIT, ROW_MISS, ROW_CONFLICT, CROSS_CONFLICT,
       CROSS_EVICTION = 8 };

/* Look `line` up in one set.  A hit moves it to the most recent way and
 * returns HIT.  A miss inserts it there and returns FILLED, or EVICTED
 * when the set was full and way 0 went, its owner into *victim. */
enum { FILLED, HIT, EVICTED };

static int lru(int64_t *set, int32_t *owner, int32_t *fill, int32_t ways,
               int64_t line, int32_t app, int32_t *victim)
{
    int32_t n = *fill, i;
    int result = FILLED;
    for (i = n - 1; i >= 0 && set[i] != line; i--)
        ;
    if (i >= 0)
        result = HIT;
    else if (n == ways) {
        result = EVICTED;
        i = 0;
        if (owner)
            *victim = owner[0];
    } else {
        i = n;
        *fill = ++n;
    }
    memmove(set + i, set + i + 1, (size_t)(n - 1 - i) * sizeof *set);
    set[n - 1] = line;
    if (owner) {
        memmove(owner + i, owner + i + 1, (size_t)(n - 1 - i) * sizeof *owner);
        owner[n - 1] = app;
    }
    return result;
}

void replay(int64_t n, const int64_t *line, const int64_t *pset,
            const int64_t *lset, const int64_t *bank, const int64_t *row,
            const int32_t *app, int64_t *priv, int32_t *priv_fill,
            int32_t priv_ways, int64_t *llc, int32_t *llc_owner,
            int32_t *llc_fill, int32_t llc_ways, int64_t *bank_row,
            int32_t *bank_app, uint8_t *out)
{
    for (int64_t k = 0; k < n; k++) {
        int32_t a = app[k], victim = 0;
        if (lru(priv + pset[k] * priv_ways, NULL, priv_fill + pset[k],
                priv_ways, line[k], a, &victim) == HIT) {
            out[k] = PRIVATE_HIT;
            continue;
        }
        int64_t s = lset[k];
        int found = lru(llc + s * llc_ways, llc_owner + s * llc_ways,
                        llc_fill + s, llc_ways, line[k], a, &victim);
        if (found == HIT) {
            out[k] = LLC_HIT;
            continue;
        }
        int code = found == EVICTED && victim != a ? CROSS_EVICTION : 0;
        int64_t b = bank[k], open = bank_row[b];
        if (open < 0)
            code |= ROW_MISS;
        else if (open == row[k])
            code |= ROW_HIT;
        else
            code |= bank_app[b] != a ? CROSS_CONFLICT : ROW_CONFLICT;
        bank_row[b] = row[k];
        bank_app[b] = a;
        out[k] = (uint8_t)code;
    }
}

/* Swap-remove draws: frame k is free[draws[k]], whose slot then takes the
 * last of the `left` free frames. */
void draw_frames(int64_t n, const int64_t *draws, int64_t *free_frames,
                 int64_t left, int64_t *frames)
{
    for (int64_t k = 0; k < n; k++) {
        frames[k] = free_frames[draws[k]];
        free_frames[draws[k]] = free_frames[--left];
    }
}
