/* Native forms of memcolor's per-element loops, loaded with ctypes by
 * memcolor._native: the replay and the two first-touch frame placements,
 * whose Python references (which touch uses) are MemoryHierarchy._step,
 * allocator._place_frames and allocator._draw_frames; the trace-file parser
 * and writer; and first-appearance numbering.  Each is tested against its
 * Python reference.
 *
 * Cache sets are flat arrays of `ways` slots, way 0 the least recent, with
 * a fill count per set.  Apps are small ints; a bank never opened has row
 * -1.  Outcome codes are those of memcolor.hierarchy.
 *
 * The order of the functions is part of their speed.  Reading trace files
 * measured 10% slower with parse_trace's loop at another alignment, and a
 * sweep's replay 2.5% slower with one more libc import before it.  With
 * gcc -O2 on x86-64, `nm -n` of the library shows replay at 0x1270 and
 * parse_trace at 0x1880: 0x80 modulo 256, as in every build whose reads
 * measured fast.  So the frame placements, the code most often changed,
 * come last, where they move nothing else; a new function goes last too,
 * and a change to replay, format_trace or number_first, which fill the
 * 0x610 bytes before parse_trace, keeps it at 0x80 modulo 256. */

#include <stdint.h>
#include <string.h>

enum { PRIVATE_HIT, LLC_HIT, ROW_HIT, ROW_MISS, ROW_CONFLICT, CROSS_CONFLICT,
       CROSS_EVICTION = 8, N_CODES = 16 };

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

/* Replay accesses 0..n-1 of a trace through the caches and banks, counting
 * each access's outcome code in counts[k / step][app[k]][code], blocks of
 * apps x N_CODES counts, one block per `step` accesses.  Access k is at
 * offset vaddr[k] within frame frames[page[k]], by core core[k] of the
 * trace, whose private sets start at priv_base[core[k]], and by app app[k]
 * (below `apps`), owner id owner[app[k]].  Every frame is inside memory, as
 * run_trace checks before it calls this. */
void replay(int64_t n, int64_t step, const int32_t *page, const uint64_t *vaddr,
            const int32_t *core, const int32_t *app, const int64_t *frames,
            const int64_t *priv_base, const int32_t *owner, int32_t apps,
            int32_t page_shift, int32_t line_shift, int32_t row_shift,
            int64_t priv_mask, const int64_t *set_seg, int32_t set_segs,
            const int64_t *bank_seg, int32_t bank_segs, int32_t priv_ways,
            int32_t llc_ways, int64_t *priv, int32_t *priv_fill,
            int64_t *llc, int32_t *llc_owner, int32_t *llc_fill,
            int64_t *bank_row, int32_t *bank_app, int64_t *counts)
{
    const uint64_t offset_mask = ((uint64_t)1 << page_shift) - 1;
    for (int64_t start = 0; start < n; start += step, counts += (int64_t)apps * N_CODES) {
        int64_t end = n - start < step ? n : start + step;
        for (int64_t k = start; k < end; k++) {
            uint64_t addr = (uint64_t)frames[page[k]] << page_shift
                            | (vaddr[k] & offset_mask);
            int64_t line = (int64_t)(addr >> line_shift);
            int64_t p = priv_base[core[k]] + (line & priv_mask);
            int64_t *count = counts + (int64_t)app[k] * N_CODES;
            int32_t a = owner[app[k]], victim = 0;
            if (lru(priv + p * priv_ways, NULL, priv_fill + p, priv_ways, line,
                    a, &victim) == HIT) {
                count[PRIVATE_HIT]++;
                continue;
            }
            int64_t s = extract(addr, set_seg, set_segs);
            int found = lru(llc + s * llc_ways, llc_owner + s * llc_ways,
                            llc_fill + s, llc_ways, line, a, &victim);
            if (found == HIT) {
                count[LLC_HIT]++;
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
            count[code]++;
        }
    }
}

/* Write records 0..n-1 in the canonical form into `out`, which has room for
 * them: record k is line kind kind[k]'s text, prefixes[ends[kind[k] - 1]:
 * ends[kind[k]]] (from 0 for kind 0), then its address as 0x and lowercase
 * hex digits without leading zeros, then " w\n" or " r\n" by write[k].
 * Returns the number of bytes written. */
int64_t format_trace(int64_t n, const int32_t *kind, const uint64_t *vaddr,
                     const uint8_t *write, const uint8_t *prefixes,
                     const int64_t *ends, uint8_t *out)
{
    uint8_t *p = out;
    for (int64_t k = 0; k < n; k++) {
        int64_t from = kind[k] ? ends[kind[k] - 1] : 0, len = ends[kind[k]] - from;
        memmove(p, prefixes + from, (size_t)len);
        p += len;
        *p++ = '0';
        *p++ = 'x';
        uint64_t v = vaddr[k];
        int digits = 1;
        while (digits < 16 && v >> 4 * digits)
            digits++;
        while (digits--)
            *p++ = "0123456789abcdef"[v >> 4 * digits & 15];
        *p++ = ' ';
        *p++ = write[k] ? 'w' : 'r';
        *p++ = '\n';
    }
    return p - out;
}

/* First-appearance numbering, the numbers workloads._sort_numbering gives:
 * key i takes the number of the first key equal to it, and a key not seen
 * before takes the next number, its position going to first[number].
 * `table` has 2^(64 - shift) slots, at least 2n, all -1 (empty) on entry.
 * A key's number sits in the slot of its Fibonacci hash,
 * k * 2^64/phi >> shift, or, when that slot holds another key's, in the
 * next slot on (wrapping round) that does not.  Returns the count of distinct keys, or -1 once the probes
 * past the hashed slots outnumber NUMBER_PROBES * n: keys crafted to
 * collide then cost the caller a sort, not n^2 probes. */
enum { NUMBER_PROBES = 8 };

int64_t number_first(int64_t n, const uint64_t *key, int32_t shift, int32_t *table,
                     int64_t *first, int32_t *number)
{
    const uint64_t mask = UINT64_MAX >> shift;
    int64_t distinct = 0, budget = NUMBER_PROBES * n;
    for (int64_t i = 0; i < n; i++) {
        uint64_t k = key[i], s = k * 0x9E3779B97F4A7C15u >> shift;
        int32_t j;
        while ((j = table[s]) >= 0 && key[first[j]] != k) {
            s = (s + 1) & mask;
            if (--budget < 0)
                return -1;
        }
        if (j < 0) {
            j = table[s] = (int32_t)distinct;
            first[distinct++] = i;
        }
        number[i] = j;
    }
    return distinct;
}

/* Trace files.  parse_trace reads what format_trace writes, records
 * `<app> <core> 0x<hex vaddr> r|w` split by one space, app names of bytes
 * 0x21-0x7e but '#', decimal cores, each line ended by '\n' (the last may be
 * unterminated), and skips empty lines and lines that start with '#'.
 * Anything else (other whitespace, '\r', a byte past 0x7f, a trailing
 * comment, 0X, a bare address) makes it return -1, "not handled", so that
 * workloads._parse_lines reads the file and reports what is wrong. */

/* The value of a hex digit, or -1. */
static int hex_digit(uint8_t c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    c |= 0x20;
    return c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
}

/* Whether name i, data[names[2i]:names[2i+1]], is the `len` bytes at s.
 * The trace functions call no libc function that replay does not: a new
 * import grows the PLT and moves replay's loop to another alignment, and
 * with memcmp and memcpy imported a sweep's replay measured 2.5% slower. */
static int is_name(const uint8_t *data, const int64_t *names, int64_t i,
                   const uint8_t *s, int64_t len)
{
    if (names[2 * i + 1] - names[2 * i] != len)
        return 0;
    for (int64_t k = 0; k < len; k++)
        if (data[names[2 * i] + k] != s[k])
            return 0;
    return 1;
}

/* Parse the `size` bytes at `data` into the columns, which have room for
 * every record.  App names are numbered in order of first appearance, the
 * previous record's name tried first; name i is data[names[2i]:names[2i+1]],
 * and *napps is their count, at most max_names.  Returns the number of
 * records, or -1. */
int64_t parse_trace(int64_t size, const uint8_t *data, int32_t *app,
                    int64_t *core, uint64_t *vaddr, uint8_t *write,
                    int64_t max_names, int64_t *names, int64_t *napps)
{
    const uint8_t *p = data, *end = data + size;
    int64_t n = 0, known = 0;
    int32_t last = -1;
    while (p < end) {
        if (*p == '#') {
            for (; p < end && *p != '\n'; p++)
                if (*p == '\r' || *p >= 0x80)
                    return -1;
        } else if (*p != '\n') {
            const uint8_t *name = p, *digits;
            while (p < end && *p > ' ' && *p < 0x7f && *p != '#')
                p++;
            int64_t len = p - name;
            if (len == 0 || p == end || *p++ != ' ')
                return -1;
            /* the core, below 2^63 */
            uint64_t c = 0;
            for (digits = p; p < end && *p >= '0' && *p <= '9'; p++) {
                if (c > ((uint64_t)INT64_MAX - (*p - '0')) / 10)
                    return -1;
                c = c * 10 + (*p - '0');
            }
            if (p == digits || end - p < 3 || p[0] != ' ' || p[1] != '0' || p[2] != 'x')
                return -1;
            /* the address, below 2^64 */
            uint64_t v = 0;
            for (p = digits = p + 3; p < end && hex_digit(*p) >= 0; p++) {
                if (v >> 60)
                    return -1;
                v = v << 4 | (uint64_t)hex_digit(*p);
            }
            if (p == digits || end - p < 2 || p[0] != ' ' || (p[1] != 'r' && p[1] != 'w')
                || (end - p > 2 && p[2] != '\n'))
                return -1;
            core[n] = (int64_t)c;
            vaddr[n] = v;
            write[n] = p[1] == 'w';
            p += 2;
            if (last < 0 || !is_name(data, names, last, name, len)) {
                for (last = 0; last < known && !is_name(data, names, last, name, len); last++)
                    ;
                if (last == known) {
                    if (known == max_names)
                        return -1;
                    names[2 * known] = name - data;
                    names[2 * known + 1] = name - data + len;
                    known++;
                }
            }
            app[n++] = last;
        }
        if (p < end)
            p++;    /* the '\n' */
    }
    *napps = known;
    return n;
}

/* First-touch frames from the colour pools, by the rule and with the
 * arguments of allocator._place_frames: app a takes the first colour with a
 * free frame in its quota from rr[a] on, or else the first of colours
 * 0..pools-1.  Returns the count placed, up to the first page none serves. */
int64_t place_frames(int64_t n, const int32_t *app, const int64_t *quota,
                     const int64_t *colors, int64_t *rr, int64_t pools, int64_t period,
                     const int64_t *start, const int64_t *offsets,
                     int64_t *cursor, const int64_t *size, int64_t *frames)
{
    for (int64_t k = 0; k < n; k++) {
        int32_t a = app[k];
        int64_t lo = quota[a], m = quota[a + 1] - lo, r = rr[a], c = 0, step;
        for (step = 0; step < m; step++) {
            c = colors[lo + r];
            if (++r == m)
                r = 0;
            if (cursor[c] < size[c])
                break;
        }
        if (step == m) {    /* no quota, or none of its colours has a frame */
            int64_t last = m ? pools : 0;
            for (c = 0; c < last && cursor[c] == size[c]; c++)
                ;
            if (c == last)
                return k;
        } else
            rr[a] = r;
        int64_t j = cursor[c]++, w = start[c + 1] - start[c];
        frames[k] = j / w * period + offsets[start[c] + j % w];
    }
    return n;
}

/* The random policy's free list, swap-remove and sparse: slot i holds frame
 * i unless a draw displaced it, and `table` holds the displaced slots as
 * (slot, frame) pairs, mask + 1 of them (a power of two), slot -1 in an
 * empty one.  A slot's pair is at pair slot & mask, or the next on
 * (wrapping round) that holds the slot or is empty.  The slots are drawn
 * uniformly, so their low bits need no other hash; and the last free slot,
 * looked up on every draw, walks down the table from one draw to the next,
 * in cache. */
static int64_t *slot_pair(int64_t *table, int64_t mask, int64_t slot)
{
    int64_t s = slot & mask;
    while (table[2 * s] >= 0 && table[2 * s] != slot)
        s = (s + 1) & mask;
    return table + 2 * s;
}

/* Swap-remove draws, with the arguments of allocator._draw_frames: frame k
 * is the one in slot draws[k] of the `left` free, and that slot then takes
 * the last free slot's frame.  The `olds` pairs of `old`, the table before
 * it grew, are put into `table` first, in their order. */
void draw_frames(int64_t n, const int64_t *draws, int64_t left, int64_t *frames,
                 int64_t *table, int64_t mask, const int64_t *old, int64_t olds)
{
    for (int64_t i = 0; i < 2 * olds; i += 2)
        if (old[i] >= 0) {
            int64_t *pair = slot_pair(table, mask, old[i]);
            pair[0] = old[i];
            pair[1] = old[i + 1];
        }
    for (int64_t k = 0; k < n; k++) {
        int64_t *pair = slot_pair(table, mask, draws[k]);
        int64_t *last = slot_pair(table, mask, --left);
        frames[k] = pair[0] < 0 ? draws[k] : pair[1];
        pair[1] = last[0] < 0 ? left : last[1];
        pair[0] = draws[k];
    }
}
