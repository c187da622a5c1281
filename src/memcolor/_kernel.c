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

/* The bits of `v` at the positions of `n` segments, (shift, mask, out)
 * triples as in memcolor.mapping.BitExtractor. */
static int64_t extract(uint64_t v, const int64_t *seg, int32_t n)
{
    int64_t r = 0;
    for (int32_t i = 0; i < n; i++, seg += 3)
        r |= (int64_t)((v >> seg[0]) & (uint64_t)seg[1]) << seg[2];
    return r;
}

/* Replay accesses 0..n-1 of a trace through the caches and banks, writing
 * an outcome code per access.  Access k is at offset vaddr[k] within frame
 * frames[page[k]], by core core[k] of the trace, whose private sets start
 * at priv_base[core[k]], and by app app[k], owner id owner[app[k]].  Every
 * frame is inside memory, as run_trace checks before it calls this. */
void replay(int64_t n, const int32_t *page, const uint64_t *vaddr,
            const int32_t *core, const int32_t *app, const int64_t *frames,
            const int64_t *priv_base, const int32_t *owner,
            int32_t page_shift, int32_t line_shift, int32_t row_shift,
            int64_t priv_mask, const int64_t *set_seg, int32_t set_segs,
            const int64_t *bank_seg, int32_t bank_segs, int32_t priv_ways,
            int32_t llc_ways, int64_t *priv, int32_t *priv_fill,
            int64_t *llc, int32_t *llc_owner, int32_t *llc_fill,
            int64_t *bank_row, int32_t *bank_app, uint8_t *out)
{
    const uint64_t offset_mask = ((uint64_t)1 << page_shift) - 1;
    for (int64_t k = 0; k < n; k++) {
        uint64_t addr = (uint64_t)frames[page[k]] << page_shift
                        | (vaddr[k] & offset_mask);
        int64_t line = (int64_t)(addr >> line_shift);
        int64_t p = priv_base[core[k]] + (line & priv_mask);
        int32_t a = owner[app[k]], victim = 0;
        if (lru(priv + p * priv_ways, NULL, priv_fill + p, priv_ways, line,
                a, &victim) == HIT) {
            out[k] = PRIVATE_HIT;
            continue;
        }
        int64_t s = extract(addr, set_seg, set_segs);
        int found = lru(llc + s * llc_ways, llc_owner + s * llc_ways,
                        llc_fill + s, llc_ways, line, a, &victim);
        if (found == HIT) {
            out[k] = LLC_HIT;
            continue;
        }
        int code = found == EVICTED && victim != a ? CROSS_EVICTION : 0;
        int64_t b = extract(addr, bank_seg, bank_segs);
        int64_t row = (int64_t)(addr >> row_shift), open = bank_row[b];
        if (open < 0)
            code |= ROW_MISS;
        else if (open == row)
            code |= ROW_HIT;
        else
            code |= bank_app[b] != a ? CROSS_CONFLICT : ROW_CONFLICT;
        bank_row[b] = row;
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
