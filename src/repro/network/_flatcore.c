/* The flat network core's per-cycle work, as a CPython extension.
 *
 * repro.network.flatcore computes the wiring tables of a network once in
 * Python and hands them to Core(); from then on every cycle's work --
 * the four arrival-wheel drains, virtual-channel allocation, the two
 * switch-allocation stages and crossbar forwarding over the busy-router
 * worklist, the injection pass over the interfaces the wake heap reports
 * due, and next_event_cycle -- runs here, and so does the cycle loop:
 * run(start, end, done) steps the cycles next_event reports work at,
 * jumps the idle spans between them, and asks done() on entry and then
 * only after a cycle that called messages_due or delivered a message (the
 * only events that may change it); a None done is the open-loop stop,
 * the core's own measured count.  The module docstring of
 * repro.network.flatcore describes the model, the address spaces and
 * the scheduling state; this file replays the object core
 * (repro.router.router.Router, repro.network.interface.NetworkInterface)
 * phase for phase, so results stay bit-identical to it.
 *
 * Routing decisions are decoded into Decision entries.  For algorithms
 * that decide by sign class on a mesh or torus, a [node][sign class]
 * table of them is filled lazily, one raw routing.decide call per entry,
 * and never cleared (routing tables are programmed once, at
 * construction).  The table is the one writable buffer the routing
 * instance owns, so every core built on that instance, with or without
 * escape VCs, reads and fills the same entries.  Other algorithms are
 * asked through decide_cached on every lookup.  The six deterministic
 * path selectors rank their candidates here, by the output-port arrays
 * this core owns.
 *
 * Each delivery is accounted here too (Tally): the delivered count and,
 * for a measured message -- by the creation index record_created stamped
 * on it, read once when its slot is taken -- the Welford moments of the
 * total latency, network latency and hops and the P² p50/p99 trackers,
 * with repro.stats.latency's double operations in its order.  The
 * statistics collector reads them through tally().
 *
 * Python is called back only where the randomness, plugins and traffic
 * live, in the object core's order: those routing calls,
 * selectors[node].select for any other selector (handed each candidate's
 * OutputPortStatus, whose usage_count / last_used_cycle are out_usage /
 * out_last_used), source.messages_due / next_due_cycle, the statistics
 * collector's record_created (looked up by name each time), and its
 * delivery callbacks on each delivery.  A source is
 * asked for messages only from the cycle its cached due cycle src_due
 * names: next_due_cycle is re-read once after each messages_due call,
 * and wake_interface lowers the cache.  The cache may be early (a budget
 * spent elsewhere leaves it stale), never late.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stddef.h>
#include <string.h>

typedef long long i64;

/* Input virtual-channel states. */
#define IDLE 0
#define ROUTING 1
#define ACTIVE 2

/* Flit role bits: a flit is the int ``slot << 2 | head << 1 | tail``. */
#define HEAD 2
#define TAIL 1

/* Interface wake for "idle until an external event". */
#define NEVER LLONG_MAX

/* Largest router radix (ports per router, ejection included). */
#define MAX_RADIX 64

/* Sign rules of the decision table (Topology.relative_signs): none (ask
   decide_cached on every lookup), a mesh's or a torus's. */
#define SIGNS_NONE 0
#define SIGNS_MESH 1
#define SIGNS_TORUS 2

/* Path-selector kinds, as numbered in repro.network.flatcore._C_SELECTORS:
   SEL_PYTHON calls selectors[node].select back, the others rank here. */
enum { SEL_PYTHON, SEL_STATIC_XY, SEL_FIRST_FREE, SEL_MIN_MUX, SEL_LFU, SEL_LRU, SEL_MAX_CREDIT };

/* Interned attribute and method names. */
static PyObject *s_select, *s_messages_due, *s_next_due_cycle, *s_record_created, *s_hops,
    *s_injection_cycle, *s_ejection_cycle, *s_creation_index, *s_creation_cycle,
    *s_destination, *s_length, *s_adaptive_ports, *s_escape_port;

/* -- growable int vectors ------------------------------------------------- */

typedef struct {
    int *v;
    Py_ssize_t n, cap;
} IntVec;

static int
ivec_reserve(IntVec *x, Py_ssize_t need)
{
    if (need <= x->cap)
        return 0;
    Py_ssize_t cap = x->cap ? x->cap : 8;
    while (cap < need)
        cap *= 2;
    int *v = PyMem_Realloc(x->v, (size_t)cap * sizeof(int));
    if (v == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    x->v = v;
    x->cap = cap;
    return 0;
}

static inline int
ivec_push(IntVec *x, int a)
{
    if (x->n == x->cap && ivec_reserve(x, x->n + 1) < 0)
        return -1;
    x->v[x->n++] = a;
    return 0;
}

/* Wheel lanes that carry (flit, channel) pairs store them side by side. */
static inline int
ivec_push2(IntVec *x, int a, int b)
{
    if (x->n + 2 > x->cap && ivec_reserve(x, x->n + 2) < 0)
        return -1;
    x->v[x->n++] = a;
    x->v[x->n++] = b;
    return 0;
}

/* -- per-interface message queues (rings of owned references) -------------- */

typedef struct {
    PyObject **v;
    Py_ssize_t head, n, cap;
} Queue;

static int
queue_push(Queue *q, PyObject *item)
{
    if (q->n == q->cap) {
        Py_ssize_t cap = q->cap ? 2 * q->cap : 4;
        PyObject **v = PyMem_Malloc((size_t)cap * sizeof(PyObject *));
        if (v == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < q->n; i++)
            v[i] = q->v[(q->head + i) % q->cap];
        PyMem_Free(q->v);
        q->v = v;
        q->head = 0;
        q->cap = cap;
    }
    Py_INCREF(item);
    q->v[(q->head + q->n) % q->cap] = item;
    q->n++;
    return 0;
}

/* Pop the oldest item; the caller owns the returned reference. */
static PyObject *
queue_pop(Queue *q)
{
    PyObject *item = q->v[q->head];
    q->head = (q->head + 1) % q->cap;
    q->n--;
    return item;
}

#define QUEUE_AT(q, i) ((q)->v[((q)->head + (i)) % (q)->cap])

/* -- the interface wake heap ---------------------------------------------- */

typedef struct {
    i64 wake;
    int node;
} HeapEntry;

static inline int
heap_less(HeapEntry a, HeapEntry b)
{
    return a.wake < b.wake || (a.wake == b.wake && a.node < b.node);
}

/* -- measured-message statistics ------------------------------------------------ */

/* Streaming moments of one integer quantity: repro.stats.latency
   RunningStats.add's double operations, in its order (the build turns off
   floating-point contraction, so no step is fused). */
typedef struct {
    i64 count, min, max;
    double mean, m2;
} Moments;

static void
moments_add(Moments *m, i64 value)
{
    double x = (double)value;
    m->count++;
    double delta = x - m->mean;
    m->mean += delta / (double)m->count;
    m->m2 += delta * (x - m->mean);
    if (m->count == 1 || value < m->min)
        m->min = value;
    if (m->count == 1 || value > m->max)
        m->max = value;
}

/* One P² quantile tracker (repro.stats.latency.P2Quantile): the first five
   samples, then five marker heights, positions and desired positions.
   The middle marker's height is an int sample until the marker first
   moves (``moved``), as in Python. */
typedef struct {
    double fraction;
    i64 n, initial[5];
    double h[5], pos[5], want[5], rate[5];
    int moved;
} P2;

/* Insertion sort of the (at most five) initial samples. */
static void
sort_samples(i64 *v, int n)
{
    for (int i = 1; i < n; i++)
        for (int k = i; k > 0 && v[k] < v[k - 1]; k--) {
            i64 swap = v[k];
            v[k] = v[k - 1];
            v[k - 1] = swap;
        }
}

static void
p2_add(P2 *q, i64 value)
{
    if (q->n < 5) {
        q->initial[q->n++] = value;
        if (q->n == 5) {
            sort_samples(q->initial, 5);
            double p = q->fraction;
            double want[5] = {1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0};
            double rate[5] = {0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0};
            for (int i = 0; i < 5; i++) {
                q->h[i] = (double)q->initial[i];
                q->pos[i] = i + 1.0;
                q->want[i] = want[i];
                q->rate[i] = rate[i];
            }
        }
        return;
    }
    q->n++;
    double x = (double)value, *h = q->h, *pos = q->pos;
    int cell = 0;
    if (x < h[0])
        h[0] = x;
    else if (x >= h[4]) {
        h[4] = x;
        cell = 3;
    }
    else
        while (cell < 3 && x >= h[cell + 1])
            cell++;
    for (int i = cell + 1; i < 5; i++)
        pos[i] += 1.0;
    for (int i = 0; i < 5; i++)
        q->want[i] += q->rate[i];
    for (int i = 1; i < 4; i++) {
        double drift = q->want[i] - pos[i];
        if (!((drift >= 1.0 && pos[i + 1] - pos[i] > 1.0)
              || (drift <= -1.0 && pos[i - 1] - pos[i] < -1.0)))
            continue;
        double step = drift >= 1.0 ? 1.0 : -1.0;
        double below = pos[i] - pos[i - 1], above = pos[i + 1] - pos[i];
        double span = pos[i + 1] - pos[i - 1];
        double candidate = h[i] + (step / span) * ((below + step) * (h[i + 1] - h[i]) / above
                                                   + (above - step) * (h[i] - h[i - 1]) / below);
        if (h[i - 1] < candidate && candidate < h[i + 1]) {
            h[i] = candidate;
        }
        else {
            int neighbor = i + (int)step;
            h[i] = h[i] + step * (h[neighbor] - h[i]) / (pos[neighbor] - pos[i]);
        }
        pos[i] += step;
        q->moved |= i == 2;
    }
}

/* Every delivery's accounting (StatsCollector.record_delivered): messages
   with creation index in [warmup, warmup + measure) are measured (measure
   < 0: no upper end); ``first`` is -1 until the first measured delivery. */
typedef struct {
    i64 warmup, measure, delivered, measured, measured_flits, first, last;
    Moments total, network, hops;
    P2 p50, p99;
} Tally;

static void
tally_init(Tally *t, i64 warmup, i64 measure)
{
    memset(t, 0, sizeof(Tally));
    t->warmup = warmup;
    t->measure = measure;
    t->first = -1;
    t->p50.fraction = 0.5;
    t->p99.fraction = 0.99;
}

/* Account one delivered message created at ``created`` with creation
   index ``index`` (-1: none), injected at ``injected``, of ``length``
   flits, after ``hops`` hops, delivered at ``cycle``. */
static void
tally_add(Tally *t, i64 index, i64 created, i64 injected, int length, int hops, i64 cycle)
{
    t->delivered++;
    t->last = cycle;
    if (index < t->warmup || (t->measure >= 0 && index >= t->warmup + t->measure))
        return;
    t->measured++;
    t->measured_flits += length;
    moments_add(&t->total, cycle - created);
    p2_add(&t->p50, cycle - created);
    p2_add(&t->p99, cycle - created);
    moments_add(&t->network, cycle - injected);
    moments_add(&t->hops, hops);
    if (t->first < 0)
        t->first = cycle;
}

/* (count, mean, variance, minimum, maximum), typed like RunningStats'
   properties: 0.0 for the mean, variance and bounds of too few samples,
   int bounds otherwise. */
static PyObject *
moments_tuple(const Moments *m)
{
    double variance = m->count > 1 ? m->m2 / (double)(m->count - 1) : 0.0;
    if (!m->count)
        return Py_BuildValue("(Ldddd)", m->count, 0.0, variance, 0.0, 0.0);
    return Py_BuildValue("(LddLL)", m->count, m->mean, variance, m->min, m->max);
}

/* P2Quantile.value: 0.0 without samples; the exact nearest-rank sample
   (ceiling rule) of fewer than five; then the middle marker's height, an
   int until that marker first moved. */
static PyObject *
p2_value(const P2 *q)
{
    if (q->n >= 5)
        return q->moved ? PyFloat_FromDouble(q->h[2]) : PyLong_FromLongLong((i64)q->h[2]);
    if (!q->n)
        return PyFloat_FromDouble(0.0);
    i64 ordered[5];
    memcpy(ordered, q->initial, sizeof(ordered));
    sort_samples(ordered, (int)q->n);
    i64 rank = (i64)ceil(q->fraction * (double)q->n);
    i64 at = rank - 1 < 0 ? 0 : rank - 1;
    return PyLong_FromLongLong(ordered[at < q->n - 1 ? at : q->n - 1]);
}

/* -- routing decisions and message slots -------------------------------------- */

/* A decoded RouteDecision: the ``n`` adaptive candidate ports in decision
   order (duplicates and unconnected ports dropped, as they can never be
   candidates) and the escape port (-1 when unconnected).  A core without
   escape VCs keeps the escape port too: its escape pools are empty, so
   nothing is ever allocated from it, and one entry serves cores with and
   without escape VCs alike.  ``filled`` is 0 in an empty table entry. */
typedef struct {
    signed char filled, n, escape;
    unsigned char ports[MAX_RADIX];
} Decision;

/* Header state of one message in flight: the message, its destination and
   length, the dateline mask, the hops taken, the look-ahead node and a copy
   of its decision, and the cycle the header last reached a buffer; for the
   statistics its creation index (-1: none) and cycle and the cycle its
   header was injected. */
typedef struct {
    PyObject *msg;
    i64 arrival, index, created, injected;
    int dest, len, mask, hops, la_node;
    Decision la;
} Slot;

/* -- the core -------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    int ready; /* set once __init__ has built every array */

    /* Shape and timing constants. */
    int num_nodes, radix, vcs, per_node, num_ports, num_channels, num_slots;
    int capacity, atomic, selection_offset, lookahead;
    int local_delay, link_delay, credit_delay, wheel;

    /* Virtual-channel classes: the adaptive VCs, and per port the two
       dateline-class escape pools at pools[(port * 2 + cls) * vcs]. */
    int n_adaptive;
    int *adaptive_vcs, *pools, *pool_n;
    int *port_dimension, *port_hop_delay;

    /* Per global port; out_usage / out_last_used are the use history
       (flits forwarded, last forwarding cycle) that path selectors read
       and that counters(False) sums per node. */
    int *dateline_bits, *port_neighbor, *in_prio, *out_prio;
    char *out_connected;
    i64 *out_usage, *out_last_used;

    /* Per global channel: input buffers as rings of ``capacity`` flits,
       the input state machine and the output side. */
    int *buf, *buf_head, *buf_len;
    char *in_state;
    i64 *in_ready;
    int *in_out_g, *in_out_port, *out_credits, *out_owner;
    int *go_flit_dest, *g_credit_dest;

    /* Per node: sorted ROUTING / ACTIVE member arrays of local channels
       (rows of per_node entries), the busy worklist and the headers
       routed. */
    int *rm, *rm_n, *am, *am_n, *busy;
    int busy_n;
    char *released;
    i64 *headers_routed;

    /* Message slots. */
    Slot *slots;
    Py_ssize_t slot_n, slot_cap;
    IntVec slot_free;

    /* Injection / ejection interfaces; src_due caches each source's
       next_due_cycle (never later than it, NEVER for no source). */
    int *ni_credits, *ni_left, *ni_slot, *ni_next_slot;
    Queue *ni_queue;
    i64 *ni_wake, *src_due;
    HeapEntry *heap;
    Py_ssize_t heap_n, heap_cap;
    IntVec soon, due;
    char *due_mark;

    /* Arrival wheels: flit lanes hold (flit, input channel) pairs, eject
       lanes (flit, local output channel) pairs, credit lanes output
       channels and injection-credit lanes injection slots. */
    IntVec *flit_lanes, *credit_lanes, *eject_lanes, *ni_credit_lanes;
    Py_ssize_t flit_pending, credit_pending, eject_pending, ni_credit_pending;

    /* Scratch for one router's ROUTING snapshot. */
    int *snap;

    /* Cycles run() stepped (the rest of its span it jumped), and whether
       the current cycle called messages_due or delivered a message. */
    i64 cycles_visited;
    int progressed;

    /* The measured-message statistics, and the statistics collector's
       delivery callbacks (its live list), run on every delivery. */
    Tally tally;
    PyObject *callbacks;

    /* Routing decisions: per node its coordinates (dimension 0 fastest in
       the node id), and under a sign rule the [node][sign class] table of
       num_nodes * 3^n_dims entries, held in decision_view: the spec's
       decision_table buffer, shared by every core on the same routing
       instance.  decision_lookups / decision_fills count this core's
       table reads and the raw decide calls it made on a miss.  Per node
       the path-selector kind. */
    int sign_rule, n_dims, n_classes;
    int *dims, *coords, *sel_kind;
    Decision *decisions;
    Py_buffer decision_view;
    i64 decision_lookups, decision_fills;

    /* Python collaborators: ``decide`` is routing.decide under a sign rule
       (it fills the table), routing.decide_cached otherwise. */
    PyObject *decide, *selectors, *sources, *stats, *status_cls;
    PyObject **ints; /* cached ints 0 .. n_ints - 1 */
    int n_ints;
} Core;

static PyObject *
small_int(Core *c, i64 value)
{
    if (value >= 0 && value < c->n_ints) {
        Py_INCREF(c->ints[value]);
        return c->ints[value];
    }
    return PyLong_FromLongLong(value);
}

static int
heap_push(Core *c, i64 wake, int node)
{
    if (c->heap_n == c->heap_cap) {
        Py_ssize_t cap = c->heap_cap ? 2 * c->heap_cap : 16;
        HeapEntry *v = PyMem_Realloc(c->heap, (size_t)cap * sizeof(HeapEntry));
        if (v == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        c->heap = v;
        c->heap_cap = cap;
    }
    HeapEntry entry = {wake, node};
    Py_ssize_t i = c->heap_n++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) / 2;
        if (!heap_less(entry, c->heap[parent]))
            break;
        c->heap[i] = c->heap[parent];
        i = parent;
    }
    c->heap[i] = entry;
    return 0;
}

static HeapEntry
heap_pop(Core *c)
{
    HeapEntry top = c->heap[0];
    HeapEntry last = c->heap[--c->heap_n];
    Py_ssize_t n = c->heap_n, i = 0;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_less(c->heap[child + 1], c->heap[child]))
            child++;
        if (!heap_less(c->heap[child], last))
            break;
        c->heap[i] = c->heap[child];
        i = child;
    }
    if (n)
        c->heap[i] = last;
    return top;
}

/* Insert ``value`` into the sorted array ``row`` of ``*n`` entries. */
static inline void
sorted_insert(int *row, int *n, int value)
{
    int i = *n;
    while (i > 0 && row[i - 1] > value) {
        row[i] = row[i - 1];
        i--;
    }
    row[i] = value;
    (*n)++;
}

/* Remove ``value`` from the sorted array ``row`` if present. */
static inline void
sorted_remove(int *row, int *n, int value)
{
    for (int i = 0; i < *n; i++) {
        if (row[i] == value) {
            memmove(row + i, row + i + 1, (size_t)(*n - i - 1) * sizeof(int));
            (*n)--;
            return;
        }
        if (row[i] > value)
            return;
    }
}

static void
busy_insert(Core *c, int node)
{
    int lo = 0, hi = c->busy_n;
    while (lo < hi) {
        int mid = (lo + hi) / 2;
        if (c->busy[mid] < node)
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(c->busy + lo + 1, c->busy + lo, (size_t)(c->busy_n - lo) * sizeof(int));
    c->busy[lo] = node;
    c->busy_n++;
}

static inline int
buf_front(Core *c, int g)
{
    return c->buf[(i64)g * c->capacity + c->buf_head[g]];
}

/* Read an int attribute; -1 with an exception set on failure. */
static int
int_attr(PyObject *obj, PyObject *name, long *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    *out = PyLong_AsLong(value);
    Py_DECREF(value);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* Read an int attribute as an i64, None as -1; -1 with an exception set
   on failure. */
static int
i64_attr(PyObject *obj, PyObject *name, i64 *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    *out = value == Py_None ? -1 : PyLong_AsLongLong(value);
    Py_DECREF(value);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* Take a message slot for ``message`` and reset its header state (the
   arrival cycle is written when the header reaches a buffer, the
   injection cycle when the header is sent). */
static int
new_slot(Core *c, PyObject *message)
{
    long destination, length;
    i64 index, created;
    if (int_attr(message, s_destination, &destination) < 0
        || int_attr(message, s_length, &length) < 0
        || i64_attr(message, s_creation_index, &index) < 0
        || i64_attr(message, s_creation_cycle, &created) < 0)
        return -1;
    Py_ssize_t slot;
    if (c->slot_free.n) {
        slot = c->slot_free.v[--c->slot_free.n];
    }
    else {
        if (c->slot_n == c->slot_cap) {
            Py_ssize_t cap = c->slot_cap ? 2 * c->slot_cap : 64;
            Slot *slots = PyMem_Realloc(c->slots, (size_t)cap * sizeof(Slot));
            if (slots == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            c->slots = slots;
            c->slot_cap = cap;
        }
        slot = c->slot_n++;
        memset(&c->slots[slot], 0, sizeof(Slot));
    }
    Py_INCREF(message);
    Py_XSETREF(c->slots[slot].msg, message);
    c->slots[slot].dest = (int)destination;
    c->slots[slot].len = (int)length;
    c->slots[slot].mask = 0;
    c->slots[slot].hops = 0;
    c->slots[slot].la_node = -1;
    c->slots[slot].index = index;
    c->slots[slot].created = created;
    return (int)slot;
}

/* -- deliver: drain the four wheels ------------------------------------------ */

static int
parse_cycle(PyObject *arg, i64 *cycle)
{
    *cycle = PyLong_AsLongLong(arg);
    if (*cycle == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
check_ready(Core *c)
{
    if (!c->ready) {
        PyErr_SetString(PyExc_RuntimeError, "flat core used before __init__");
        return -1;
    }
    return 0;
}

/* Router flit/credit absorption, then the interfaces' ejection and
   injection-credit drains -- the object phase order.  The eject lane is
   in ascending node order, so deliveries reach the statistics collector
   in the object interfaces' order.  -1 with an exception set on error. */
static int
deliver_cycle(Core *c, i64 cycle)
{
    int slot = (int)(cycle % c->wheel);

    if (c->flit_pending && c->flit_lanes[slot].n) {
        IntVec *lane = &c->flit_lanes[slot];
        c->flit_pending -= lane->n / 2;
        i64 ready = cycle + c->selection_offset;
        for (Py_ssize_t i = 0; i < lane->n; i += 2) {
            int flit = lane->v[i], g = lane->v[i + 1];
            int len = c->buf_len[g];
            if (len >= c->capacity) {
                lane->n = 0;
                PyErr_Format(PyExc_OverflowError,
                             "input VC %d overflow: credit protocol violated", g);
                return -1;
            }
            c->buf[(i64)g * c->capacity + (c->buf_head[g] + len) % c->capacity] = flit;
            c->buf_len[g] = len + 1;
            if (flit & HEAD) {
                c->slots[flit >> 2].arrival = cycle;
                if (c->in_state[g] == IDLE && len == 0) {
                    c->in_state[g] = ROUTING;
                    c->in_ready[g] = ready;
                    int node = g / c->per_node;
                    if (!c->rm_n[node] && !c->am_n[node])
                        busy_insert(c, node);
                    sorted_insert(c->rm + (i64)node * c->per_node, &c->rm_n[node],
                                  g - node * c->per_node);
                }
            }
        }
        lane->n = 0;
    }
    if (c->credit_pending && c->credit_lanes[slot].n) {
        IntVec *lane = &c->credit_lanes[slot];
        c->credit_pending -= lane->n;
        for (Py_ssize_t i = 0; i < lane->n; i++)
            c->out_credits[lane->v[i]]++;
        lane->n = 0;
    }
    if (c->eject_pending && c->eject_lanes[slot].n) {
        IntVec *lane = &c->eject_lanes[slot];
        IntVec *credit_lane = &c->credit_lanes[(cycle + c->credit_delay) % c->wheel];
        Py_ssize_t count = lane->n / 2;
        c->eject_pending -= count;
        c->credit_pending += count;
        PyObject *py_cycle = NULL;
        int failed = 0;
        for (Py_ssize_t i = 0; i < lane->n && !failed; i += 2) {
            int flit = lane->v[i], go = lane->v[i + 1];
            if (ivec_push(credit_lane, go) < 0) {
                failed = 1;
                break;
            }
            if (!(flit & TAIL))
                continue;
            int s = flit >> 2;
            PyObject *message = c->slots[s].msg;
            if (message == NULL) {
                PyErr_Format(PyExc_AssertionError, "tail flit of empty message slot %d", s);
                failed = 1;
                break;
            }
            if (py_cycle == NULL && (py_cycle = PyLong_FromLongLong(cycle)) == NULL) {
                failed = 1;
                break;
            }
            Slot *sl = &c->slots[s];
            PyObject *hops = small_int(c, sl->hops);
            failed = hops == NULL || PyObject_SetAttr(message, s_hops, hops) < 0
                     || PyObject_SetAttr(message, s_ejection_cycle, py_cycle) < 0;
            Py_XDECREF(hops);
            if (failed)
                break;
            tally_add(&c->tally, sl->index, sl->created, sl->injected, sl->len, sl->hops, cycle);
            c->progressed = 1;
            /* The slot is released before the callbacks run, and the
               message kept alive by this frame. */
            sl->msg = NULL;
            failed = ivec_push(&c->slot_free, s) < 0;
            PyObject *args[2] = {message, py_cycle};
            for (Py_ssize_t k = 0; !failed && k < PyList_GET_SIZE(c->callbacks); k++) {
                PyObject *callback = PyList_GET_ITEM(c->callbacks, k);
                Py_INCREF(callback);
                PyObject *result = PyObject_Vectorcall(callback, args, 2, NULL);
                Py_DECREF(callback);
                failed = result == NULL;
                Py_XDECREF(result);
            }
            Py_DECREF(message);
        }
        lane->n = 0;
        Py_XDECREF(py_cycle);
        if (failed)
            return -1;
    }
    if (c->ni_credit_pending && c->ni_credit_lanes[slot].n) {
        IntVec *lane = &c->ni_credit_lanes[slot];
        c->ni_credit_pending -= lane->n;
        for (Py_ssize_t i = 0; i < lane->n; i++) {
            int s = lane->v[i];
            c->ni_credits[s]++;
            int node = s / c->vcs;
            if (c->ni_wake[node] > cycle) {
                c->ni_wake[node] = cycle;
                if (ivec_push(&c->soon, node) < 0) {
                    lane->n = 0;
                    return -1;
                }
            }
        }
        lane->n = 0;
    }
    return 0;
}

/* -- virtual-channel allocation ---------------------------------------------- */

/* Selector-facing status of one output port (Router._port_status). */
static PyObject *
port_status(Core *c, int pbase, int port, int num_free)
{
    int obase = (pbase + port) * c->vcs;
    i64 total_credits = 0;
    int busy = 0;
    for (int vc = 0; vc < c->vcs; vc++) {
        total_credits += c->out_credits[obase + vc];
        if (c->out_owner[obase + vc] >= 0)
            busy++;
    }
    PyObject *args[7];
    args[0] = small_int(c, port);
    args[1] = port == 0 ? PyLong_FromLong(-1) : small_int(c, (port - 1) / 2);
    args[2] = PyLong_FromLongLong(c->out_usage[pbase + port]);
    args[3] = PyLong_FromLongLong(c->out_last_used[pbase + port]);
    args[4] = PyLong_FromLongLong(total_credits);
    args[5] = small_int(c, busy);
    args[6] = small_int(c, num_free);
    PyObject *status = NULL;
    int ok = 1;
    for (int i = 0; i < 7; i++)
        ok &= args[i] != NULL;
    if (ok)
        status = PyObject_Vectorcall(c->status_cls, args, 7, NULL);
    for (int i = 0; i < 7; i++)
        Py_XDECREF(args[i]);
    return status;
}

/* First free VC of ``pool`` on output channel base ``obase`` (-1 when
   none) and, through ``count``, how many are free.  Atomic allocation
   (wrapping topologies) also needs the full downstream buffer. */
static inline int
free_vcs(Core *c, int obase, const int *pool, int n, int *count)
{
    int first = -1, free = 0;
    for (int i = 0; i < n; i++) {
        int go = obase + pool[i];
        if (c->out_owner[go] < 0 && (!c->atomic || c->out_credits[go] == c->atomic)) {
            if (first < 0)
                first = pool[i];
            free++;
        }
    }
    *count = free;
    return first;
}

/* Port number from a routing decision, range-checked. */
static int
decision_port(Core *c, PyObject *value)
{
    long port = PyLong_AsLong(value);
    if (port == -1 && PyErr_Occurred())
        return -1;
    if (port < 0 || port >= c->radix) {
        PyErr_Format(PyExc_ValueError, "routing decision names port %ld outside 0..%d",
                     port, c->radix - 1);
        return -1;
    }
    return (int)port;
}

/* Decode ``decision``, a RouteDecision for a header at ``node``, into
   ``*out``, range-checking every port it names.  0, or -1 with an
   exception set. */
static int
decode_decision(Core *c, int node, PyObject *decision, Decision *out)
{
    PyObject *ports = PyObject_GetAttr(decision, s_adaptive_ports);
    PyObject *fast = ports ? PySequence_Fast(ports, "adaptive_ports must be a sequence") : NULL;
    Py_XDECREF(ports);
    if (fast == NULL)
        return -1;
    const char *connected = c->out_connected + (i64)node * c->radix;
    unsigned long long seen = 0;
    int n = 0;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
        int port = decision_port(c, PySequence_Fast_GET_ITEM(fast, i));
        if (port < 0) {
            Py_DECREF(fast);
            return -1;
        }
        if (connected[port] && !(seen >> port & 1)) {
            seen |= 1ULL << port;
            out->ports[n++] = (unsigned char)port;
        }
    }
    Py_DECREF(fast);
    PyObject *value = PyObject_GetAttr(decision, s_escape_port);
    if (value == NULL)
        return -1;
    int escape = decision_port(c, value);
    Py_DECREF(value);
    if (escape < 0)
        return -1;
    out->escape = (signed char)(connected[escape] ? escape : -1);
    out->n = (signed char)n;
    out->filled = 1;
    return 0;
}

/* Index of ``dest``'s sign pattern seen from ``node``: the sum over
   dimensions d of (sign_d + 1) * 3^d, each sign by the rule of
   Topology.relative_signs -- sign(dest - node) on a mesh; on a torus 0 for
   a zero offset (dest - node) mod k, else +1 when the offset is at most
   k - offset (ties go positive) and -1 otherwise. */
static int
sign_class(const Core *c, int node, int dest)
{
    const int *here = c->coords + (i64)node * c->n_dims;
    const int *there = c->coords + (i64)dest * c->n_dims;
    int index = 0, weight = 1;
    for (int d = 0; d < c->n_dims; d++, weight *= 3) {
        int offset = there[d] - here[d], sign = 0;
        if (offset && c->sign_rule == SIGNS_TORUS) {
            if (offset < 0)
                offset += c->dims[d];
            sign = offset <= c->dims[d] - offset ? 1 : -1;
        }
        else if (offset) {
            sign = offset > 0 ? 1 : -1;
        }
        index += (sign + 1) * weight;
    }
    return index;
}

/* The decoded routing decision for a header at ``node`` bound for
   ``dest``: its [node][sign class] table entry, filled on a miss from one
   raw decide call, or -- without a sign rule -- decide_cached's answer
   decoded into ``scratch``.  NULL with an exception set on error. */
static const Decision *
decision_for(Core *c, int node, int dest, Decision *scratch)
{
    Decision *entry = scratch;
    if (c->sign_rule) {
        entry = &c->decisions[(i64)node * c->n_classes + sign_class(c, node, dest)];
        c->decision_lookups++;
        if (entry->filled)
            return entry;
        c->decision_fills++;
    }
    PyObject *args[2];
    args[0] = small_int(c, node);
    args[1] = small_int(c, dest);
    PyObject *decision = NULL;
    if (args[0] != NULL && args[1] != NULL)
        decision = PyObject_Vectorcall(c->decide, args, 2, NULL);
    Py_XDECREF(args[0]);
    Py_XDECREF(args[1]);
    if (decision == NULL)
        return NULL;
    int status = decode_decision(c, node, decision, entry);
    Py_DECREF(decision);
    if (status < 0) {
        entry->filled = 0;
        return NULL;
    }
    return entry;
}

/* Look-ahead routing: the decision for slot ``s``'s header at ``node``,
   computed upstream and carried in the slot (the object core carries it
   on the header flit).  It is a copy because a decision asked through
   decide_cached is decoded into scratch space and has no table entry to
   point at. */
static int
lookahead(Core *c, int s, int node)
{
    Slot *slot = &c->slots[s];
    slot->la_node = -1;
    const Decision *decision = decision_for(c, node, slot->dest, &slot->la);
    if (decision == NULL)
        return -1;
    if (decision != &slot->la)
        slot->la = *decision;
    slot->la_node = node;
    return 0;
}

/* The Python path selector's pick among the candidates: the index of the
   port selectors[node].select returns, handed each candidate's
   OutputPortStatus.  -1 with an exception set on error. */
static int
select_in_python(Core *c, int node, int pbase, const int *cand, int ncand)
{
    PyObject *statuses = PyList_New(ncand);
    if (statuses == NULL)
        return -1;
    for (int i = 0; i < ncand; i++) {
        PyObject *status = port_status(c, pbase, cand[3 * i], cand[3 * i + 2]);
        if (status == NULL) {
            Py_DECREF(statuses);
            return -1;
        }
        PyList_SET_ITEM(statuses, i, status);
    }
    PyObject *args[2] = {PyList_GET_ITEM(c->selectors, node), statuses};
    PyObject *chosen = PyObject_VectorcallMethod(s_select, args, 2, NULL);
    Py_DECREF(statuses);
    if (chosen == NULL)
        return -1;
    /* -1 (not an int, or out of range) matches no candidate. */
    long port = PyLong_Check(chosen) ? PyLong_AsLong(chosen) : -1;
    if (port == -1)
        PyErr_Clear();
    for (int i = 0; i < ncand; i++) {
        if (cand[3 * i] == port) {
            Py_DECREF(chosen);
            return i;
        }
    }
    PyObject *names = PyList_New(ncand);
    if (names != NULL) {
        for (int i = 0; i < ncand; i++)
            PyList_SET_ITEM(names, i, PyLong_FromLong(cand[3 * i]));
        if (PyList_Sort(names) == 0)
            PyErr_Format(PyExc_AssertionError,
                         "path selector chose port %R outside the candidate set %R", chosen,
                         names);
        Py_DECREF(names);
    }
    Py_DECREF(chosen);
    return -1;
}

/* A built-in heuristic's ranking key of one output port (lower wins):
   use count (LFU), last-use cycle (LRU), busy VCs (MIN-MUX), minus the
   total credits (MAX-CREDIT), or none (STATIC-XY). */
static i64
selector_key(Core *c, int kind, int pidx)
{
    if (kind == SEL_LFU)
        return c->out_usage[pidx];
    if (kind == SEL_LRU)
        return c->out_last_used[pidx];
    if (kind == SEL_STATIC_XY)
        return 0;
    i64 credits = 0, busy = 0;
    for (int go = pidx * c->vcs; go < (pidx + 1) * c->vcs; go++) {
        credits += c->out_credits[go];
        busy += c->out_owner[go] >= 0;
    }
    return kind == SEL_MIN_MUX ? busy : -credits;
}

/* Index of the candidate the node's path selector picks among ``ncand``
   (port, first free VC, free count) triples; -1 with an exception set on
   error.  First-free takes the first candidate in decision order; the
   other built-ins take the least (key, dimension, port), and ordering by
   (dimension, port) is ordering by port number. */
static int
select_port(Core *c, int node, int pbase, const int *cand, int ncand)
{
    int kind = c->sel_kind[node];
    if (kind == SEL_PYTHON)
        return select_in_python(c, node, pbase, cand, ncand);
    if (kind == SEL_FIRST_FREE)
        return 0;
    int best = 0;
    i64 best_key = selector_key(c, kind, pbase + cand[0]);
    for (int i = 1; i < ncand; i++) {
        i64 key = selector_key(c, kind, pbase + cand[3 * i]);
        if (key < best_key || (key == best_key && cand[3 * i] < cand[3 * best])) {
            best = i;
            best_key = key;
        }
    }
    return best;
}

/* Attempt to allocate an output virtual channel for the routed header of
   input channel ``g`` (Router._try_allocate): the selector is consulted
   only when at least two candidate ports have a free adaptive-class VC,
   so failed attempts draw no RNG and mutate no state.  Returns 1 on
   success, 0 when blocked, -1 on error. */
static int
try_allocate(Core *c, int node, int g, int local, int slot)
{
    const Slot *header = &c->slots[slot];
    Decision scratch;
    const Decision *decision = &header->la;
    if (!c->lookahead || header->la_node != node) {
        decision = decision_for(c, node, header->dest, &scratch);
        if (decision == NULL)
            return -1;
    }
    int vcs = c->vcs, pbase = node * c->radix;
    int selected_port = -1, selected_vc = -1;
    /* Candidates as (port, first free VC, free count) triples. */
    int cand[3 * MAX_RADIX], ncand = 0;
    for (int i = 0; i < decision->n; i++) {
        int port = decision->ports[i], count;
        int first = free_vcs(c, (pbase + port) * vcs, c->adaptive_vcs, c->n_adaptive, &count);
        if (count) {
            cand[3 * ncand] = port;
            cand[3 * ncand + 1] = first;
            cand[3 * ncand + 2] = count;
            ncand++;
        }
    }

    if (ncand == 1) {
        selected_port = cand[0];
        selected_vc = cand[1];
    }
    else if (ncand > 1) {
        int index = select_port(c, node, pbase, cand, ncand);
        if (index < 0)
            return -1;
        selected_port = cand[3 * index];
        selected_vc = cand[3 * index + 1];
    }
    else if (decision->escape >= 0) {
        int escape_port = decision->escape;
        int cls = (header->mask >> c->port_dimension[escape_port]) & 1;
        int pool = escape_port * 2 + cls, count;
        int first = free_vcs(c, (pbase + escape_port) * vcs, c->pools + pool * vcs,
                             c->pool_n[pool], &count);
        if (count) {
            selected_port = escape_port;
            selected_vc = first;
        }
    }

    if (selected_port < 0)
        return 0;
    int go = (pbase + selected_port) * vcs + selected_vc;
    if (c->out_owner[go] >= 0) {
        PyErr_Format(PyExc_ValueError, "output VC %d already owned by %d", go, c->out_owner[go]);
        return -1;
    }
    c->out_owner[go] = g;
    c->in_out_g[g] = go;
    c->in_out_port[g] = selected_port;
    c->in_state[g] = ACTIVE;
    i64 row = (i64)node * c->per_node;
    sorted_remove(c->rm + row, &c->rm_n[node], local);
    sorted_insert(c->am + row, &c->am_n[node], local);
    c->headers_routed[node]++;
    return 1;
}

/* -- the router pass --------------------------------------------------------- */

/* One allocation/forwarding pass over the busy-router worklist: VC
   allocation over each router's ROUTING channels, switch stage 1 (one
   sendable VC nominated per input port), switch stage 2 (one nominating
   input granted per output) and crossbar forwarding of the grants. */
static int
evaluate_routers(Core *c, i64 cycle)
{
    int vcs = c->vcs, radix = c->radix, per_node = c->per_node, wheel = c->wheel;
    int credit_slot = (int)((cycle + c->credit_delay) % wheel);
    IntVec *credit_lane = &c->credit_lanes[credit_slot];
    IntVec *ni_credit_lane = &c->ni_credit_lanes[credit_slot];
    IntVec *eject_lane = &c->eject_lanes[(cycle + c->local_delay) % wheel];
    /* At most one nomination and one grant per port. */
    int nominated_port[MAX_RADIX], nominated_local[MAX_RADIX], granted_outputs[MAX_RADIX];
    int grant_port[MAX_RADIX], grant_local[MAX_RADIX];
    int emptied = 0;

    for (int bi = 0; bi < c->busy_n; bi++) {
        int node = c->busy[bi];
        i64 row = (i64)node * per_node;
        int *rmembers = c->rm + row, *amembers = c->am + row;
        int *rn = &c->rm_n[node], *an = &c->am_n[node];
        int base = node * per_node, pbase = node * radix;
        c->released[node] = 0;

        /* Virtual-channel allocation over a snapshot of the ROUTING
           channels (success moves a channel to the ACTIVE array). */
        if (*rn) {
            int count = *rn;
            memcpy(c->snap, rmembers, (size_t)count * sizeof(int));
            for (int i = 0; i < count; i++) {
                int local = c->snap[i], g = base + local;
                if (c->in_ready[g] > cycle || !c->buf_len[g])
                    continue;
                int head = buf_front(c, g);
                if (!(head & HEAD)) {
                    PyErr_Format(PyExc_AssertionError,
                                 "non-header flit at the head of a ROUTING channel %d: %#x",
                                 g, head);
                    return -1;
                }
                if (try_allocate(c, node, g, local, head >> 2) < 0)
                    return -1;
            }
            if (!*an)
                continue;
        }

        /* Switch stage 1: one walk of the sorted ACTIVE array; channels
           that cannot send are skipped first, groups are the per-port
           runs of the rest, flushed on every group change. */
        int nominated = 0, group_base = -1, priority = 0, first_local = -1,
            first_at_or_after = -1, winner;
        for (int i = 0; i < *an; i++) {
            int local = amembers[i], g = base + local;
            if (!c->buf_len[g] || c->out_credits[c->in_out_g[g]] <= 0)
                continue;
            int gbase = local - local % vcs;
            if (gbase != group_base) {
                if (group_base >= 0) {
                    winner = first_at_or_after >= 0 ? first_at_or_after : first_local;
                    c->in_prio[pbase + group_base / vcs] = (winner - group_base + 1) % vcs;
                    nominated_port[nominated] = c->in_out_port[base + winner];
                    nominated_local[nominated] = winner;
                    nominated++;
                }
                group_base = gbase;
                priority = gbase + c->in_prio[pbase + gbase / vcs];
                first_local = local;
                first_at_or_after = local >= priority ? local : -1;
            }
            else if (first_at_or_after < 0 && local >= priority) {
                first_at_or_after = local;
            }
        }
        if (group_base < 0)
            continue;
        winner = first_at_or_after >= 0 ? first_at_or_after : first_local;
        c->in_prio[pbase + group_base / vcs] = (winner - group_base + 1) % vcs;
        nominated_port[nominated] = c->in_out_port[base + winner];
        nominated_local[nominated] = winner;
        nominated++;

        /* Switch stage 2: grant one nominating input port per requested
           output, in first-nomination order: the first nominator at or
           after the output's round-robin pointer, wrapping to the
           lowest.  A lone nominee always wins its output. */
        int grants = 0;
        if (nominated == 1) {
            c->out_prio[pbase + nominated_port[0]] = (winner / vcs + 1) % radix;
            grant_port[0] = nominated_port[0];
            grant_local[0] = winner;
            grants = 1;
        }
        else {
            int ngranted = 0;
            for (int i = 0; i < nominated; i++) {
                int out_port = nominated_port[i], seen = 0;
                for (int k = 0; k < ngranted; k++)
                    seen |= granted_outputs[k] == out_port;
                if (seen)
                    continue;
                granted_outputs[ngranted++] = out_port;
                int out_priority = c->out_prio[pbase + out_port];
                int chosen = -1, fallback = -1;
                for (int k = 0; k < nominated; k++) {
                    if (nominated_port[k] != out_port)
                        continue;
                    if (fallback < 0)
                        fallback = nominated_local[k];
                    if (nominated_local[k] / vcs >= out_priority) {
                        chosen = nominated_local[k];
                        break;
                    }
                }
                if (chosen < 0)
                    chosen = fallback;
                c->out_prio[pbase + out_port] = (chosen / vcs + 1) % radix;
                grant_port[grants] = out_port;
                grant_local[grants] = chosen;
                grants++;
            }
        }

        /* Crossbar forwarding of every granted head-of-buffer flit. */
        for (int k = 0; k < grants; k++) {
            int out_port = grant_port[k], local = grant_local[k];
            int g = base + local;
            int flit = buf_front(c, g);
            c->buf_head[g] = (c->buf_head[g] + 1) % c->capacity;
            c->buf_len[g]--;
            int go = c->in_out_g[g], pidx = pbase + out_port;
            c->out_credits[go]--;
            c->out_usage[pidx]++;
            c->out_last_used[pidx] = cycle;
            /* Return a credit for the input buffer slot just freed. */
            int up = c->g_credit_dest[g];
            if (up >= 0) {
                if (ivec_push(credit_lane, up) < 0)
                    return -1;
                c->credit_pending++;
            }
            else {
                if (ivec_push(ni_credit_lane, -up - 1) < 0)
                    return -1;
                c->ni_credit_pending++;
            }
            if (flit & HEAD) {
                int s = flit >> 2;
                c->slots[s].hops++;
                c->slots[s].mask |= c->dateline_bits[pidx];
                if (c->lookahead && out_port != 0 && lookahead(c, s, c->port_neighbor[pidx]) < 0)
                    return -1;
            }
            int dest = c->go_flit_dest[go];
            if (dest >= 0) {
                IntVec *lane = &c->flit_lanes[(cycle + c->port_hop_delay[out_port]) % wheel];
                if (ivec_push2(lane, flit, dest) < 0)
                    return -1;
                c->flit_pending++;
            }
            else {
                if (ivec_push2(eject_lane, flit, go) < 0)
                    return -1;
                c->eject_pending++;
            }
            if (flit & TAIL) {
                c->out_owner[go] = -1;
                c->released[node] = 1;
                c->in_state[g] = IDLE;
                c->in_out_g[g] = -1;
                c->in_out_port[g] = -1;
                sorted_remove(amembers, an, local);
                if (c->buf_len[g]) {
                    int head = buf_front(c, g);
                    if (!(head & HEAD)) {
                        PyErr_Format(PyExc_AssertionError,
                                     "expected a header after a tail on channel %d, found %#x",
                                     g, head);
                        return -1;
                    }
                    c->in_state[g] = ROUTING;
                    i64 ready = c->slots[head >> 2].arrival + c->selection_offset;
                    c->in_ready[g] = ready > cycle ? ready : cycle + 1;
                    sorted_insert(rmembers, rn, local);
                }
            }
        }
        if (!*an && !*rn)
            emptied = 1;
    }
    if (emptied) {
        int kept = 0;
        for (int bi = 0; bi < c->busy_n; bi++) {
            int node = c->busy[bi];
            if (c->rm_n[node] || c->am_n[node])
                c->busy[kept++] = node;
        }
        c->busy_n = kept;
    }
    return 0;
}

/* -- the injection pass -------------------------------------------------------- */

/* Earliest cycle (>= ``cycle``) this interface must be evaluated again
   (NetworkInterface.next_event_cycle minus the mailbox terms: the eject
   drain performs whole deliveries and injection credits re-arm the wake
   when they arrive); its source counts from the cached src_due. */
static i64
interface_next_event(Core *c, int node, i64 cycle)
{
    int sbase = node * c->vcs, free_slot = 0;
    for (int s = sbase; s < sbase + c->vcs; s++) {
        if (c->ni_left[s]) {
            if (c->ni_credits[s] > 0)
                return cycle;
        }
        else {
            free_slot = 1;
        }
    }
    if (free_slot && c->ni_queue[node].n)
        return cycle;
    i64 due = c->src_due[node];
    return due > cycle ? due : cycle;
}

/* Re-read one source's due cycle into src_due, right after its
   messages_due call: next_due_cycle(), NEVER for None.  -1 with an
   exception set on error. */
static int
refresh_due(Core *c, int node, PyObject *source)
{
    PyObject *due = PyObject_CallMethodNoArgs(source, s_next_due_cycle);
    if (due == NULL)
        return -1;
    i64 value = NEVER;
    if (due != Py_None) {
        value = PyLong_AsLongLong(due);
        if (value == -1 && PyErr_Occurred()) {
            Py_DECREF(due);
            return -1;
        }
    }
    Py_DECREF(due);
    c->src_due[node] = value;
    return 0;
}

/* ``*py_cycle``, created on its first use in a cycle (NULL on error). */
static PyObject *
cycle_int(i64 cycle, PyObject **py_cycle)
{
    if (*py_cycle == NULL)
        *py_cycle = PyLong_FromLongLong(cycle);
    return *py_cycle;
}

/* One interface's evaluate: generate, start injections, send one flit;
   then recompute its wake cycle.  The source is asked for messages only
   once its cached due cycle has come. */
static int
evaluate_interface(Core *c, int node, i64 cycle, PyObject **py_cycle)
{
    PyObject *source = PyList_GET_ITEM(c->sources, node);
    Queue *queue = &c->ni_queue[node];
    if (cycle >= c->src_due[node]) {
        if (cycle_int(cycle, py_cycle) == NULL)
            return -1;
        PyObject *args[2] = {source, *py_cycle};
        PyObject *due = PyObject_VectorcallMethod(s_messages_due, args, 2, NULL);
        c->progressed = 1;
        if (due == NULL)
            return -1;
        PyObject *iterator = PyObject_GetIter(due);
        Py_DECREF(due);
        if (iterator == NULL)
            return -1;
        PyObject *message;
        while ((message = PyIter_Next(iterator)) != NULL) {
            PyObject *call[2] = {c->stats, message};
            PyObject *done = NULL;
            if (queue_push(queue, message) == 0)
                done = PyObject_VectorcallMethod(s_record_created, call, 2, NULL);
            Py_DECREF(message);
            if (done == NULL) {
                Py_DECREF(iterator);
                return -1;
            }
            Py_DECREF(done);
        }
        Py_DECREF(iterator);
        if (PyErr_Occurred() || refresh_due(c, node, source) < 0)
            return -1;
    }

    int vcs = c->vcs, sbase = node * vcs;
    for (int vc = 0; vc < vcs && queue->n; vc++) {
        int s = sbase + vc;
        if (c->ni_left[s])
            continue;
        PyObject *message = queue_pop(queue);
        int slot = new_slot(c, message);
        Py_DECREF(message);
        if (slot < 0)
            return -1;
        c->ni_slot[s] = slot;
        c->ni_left[s] = c->slots[slot].len;
        if (c->lookahead && lookahead(c, slot, node) < 0)
            return -1;
    }

    int next_slot = c->ni_next_slot[node];
    for (int offset = 0; offset < vcs; offset++) {
        int vc = (next_slot + offset) % vcs, s = sbase + vc;
        int left = c->ni_left[s];
        if (!left || c->ni_credits[s] <= 0)
            continue;
        int slot = c->ni_slot[s];
        int flit = slot << 2 | (left == 1);
        c->ni_left[s] = left - 1;
        c->ni_credits[s]--;
        if (left == c->slots[slot].len) {
            flit |= HEAD;
            c->slots[slot].injected = cycle;
            if (cycle_int(cycle, py_cycle) == NULL
                || PyObject_SetAttr(c->slots[slot].msg, s_injection_cycle, *py_cycle) < 0)
                return -1;
        }
        IntVec *lane = &c->flit_lanes[(cycle + c->link_delay) % c->wheel];
        if (ivec_push2(lane, flit, node * c->per_node + vc) < 0)
            return -1;
        c->flit_pending++;
        c->ni_next_slot[node] = (vc + 1) % vcs;
        break;
    }

    i64 wake = interface_next_event(c, node, cycle + 1);
    c->ni_wake[node] = wake;
    if (wake == cycle + 1)
        return ivec_push(&c->soon, node);
    if (wake < NEVER)
        return heap_push(c, wake, node);
    return 0;
}

/* The busy routers' allocation/forwarding pass, then the injection pass
   over the interfaces due this cycle: the nodes re-armed for this pass
   plus the live due heap entries, once each, in node order. */
static int
evaluate_cycle(Core *c, i64 cycle)
{
    if (c->busy_n && evaluate_routers(c, cycle) < 0)
        return -1;
    if (!c->soon.n && !(c->heap_n && c->heap[0].wake <= cycle))
        return 0;
    /* Swap the next-pass list out: the pass re-arms into an empty one. */
    IntVec due = c->soon;
    c->soon = c->due;
    c->soon.n = 0;
    c->due = due;
    while (c->heap_n && c->heap[0].wake <= cycle) {
        HeapEntry entry = heap_pop(c);
        if (c->ni_wake[entry.node] == entry.wake && ivec_push(&c->due, entry.node) < 0)
            return -1;
    }
    /* Sort and deduplicate through a node bitmap. */
    for (Py_ssize_t i = 0; i < c->due.n; i++)
        c->due_mark[c->due.v[i]] = 1;
    Py_ssize_t count = 0;
    for (int node = 0; node < c->num_nodes; node++) {
        if (c->due_mark[node]) {
            c->due_mark[node] = 0;
            c->due.v[count++] = node;
        }
    }
    c->due.n = count;
    PyObject *py_cycle = NULL;
    int failed = 0;
    for (Py_ssize_t i = 0; i < count && !failed; i++)
        failed = evaluate_interface(c, c->due.v[i], cycle, &py_cycle) < 0;
    Py_XDECREF(py_cycle);
    return failed ? -1 : 0;
}

/* -- quiescence ---------------------------------------------------------------- */

/* Earliest cycle (>= ``cycle``) at which anything has work, NEVER when
   nothing ever will: the busy routers' sendable/ready conditions, the
   interfaces re-armed for this cycle or the earliest live heap wake, and
   the earliest pending arrival of the four wheels. */
static i64
next_event(Core *c, i64 cycle)
{
    if (c->soon.n)
        return cycle;
    i64 upcoming = NEVER;
    for (int bi = 0; bi < c->busy_n; bi++) {
        int node = c->busy[bi], base = node * c->per_node;
        const int *active = c->am + (i64)base, *routing = c->rm + (i64)base;
        for (int i = 0; i < c->am_n[node]; i++) {
            int g = base + active[i];
            if (c->buf_len[g] && c->out_credits[c->in_out_g[g]] > 0)
                return cycle;
        }
        for (int i = 0; i < c->rm_n[node]; i++) {
            i64 ready = c->in_ready[base + routing[i]];
            if (ready >= cycle) {
                if (ready < upcoming)
                    upcoming = ready;
            }
            else if (c->released[node]) {
                return cycle;
            }
        }
    }
    while (c->heap_n && c->ni_wake[c->heap[0].node] != c->heap[0].wake)
        heap_pop(c);
    if (c->heap_n) {
        i64 wake = c->heap[0].wake;
        if (wake <= cycle)
            return cycle;
        if (wake < upcoming)
            upcoming = wake;
    }
    if (c->flit_pending || c->credit_pending || c->eject_pending || c->ni_credit_pending) {
        for (int offset = 0; offset < c->wheel; offset++) {
            int index = (int)((cycle + offset) % c->wheel);
            if (c->flit_lanes[index].n || c->credit_lanes[index].n
                || c->eject_lanes[index].n || c->ni_credit_lanes[index].n) {
                if (cycle + offset < upcoming)
                    upcoming = cycle + offset;
                break;
            }
        }
    }
    return upcoming;
}

/* -- the Python step API and the run loop ------------------------------------- */

static PyObject *
Core_deliver(Core *c, PyObject *arg)
{
    i64 cycle;
    if (check_ready(c) < 0 || parse_cycle(arg, &cycle) < 0 || deliver_cycle(c, cycle) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_evaluate(Core *c, PyObject *arg)
{
    i64 cycle;
    if (check_ready(c) < 0 || parse_cycle(arg, &cycle) < 0 || evaluate_cycle(c, cycle) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_next_event_cycle(Core *c, PyObject *arg)
{
    i64 cycle;
    if (check_ready(c) < 0 || parse_cycle(arg, &cycle) < 0)
        return NULL;
    i64 upcoming = next_event(c, cycle);
    if (upcoming == NEVER)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(upcoming);
}

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs != expected) {
        PyErr_Format(PyExc_TypeError, "%s expects %zd arguments, got %zd", name, expected,
                     nargs);
        return -1;
    }
    return 0;
}

/* done(): 1 when it holds, 0 when not, -1 with an exception set.  A None
   ``done`` is the open-loop stop, read off the core's own count: every
   measured message delivered (StatsCollector.all_measured_delivered). */
static int
call_done(Core *c, PyObject *done)
{
    if (done == Py_None)
        return c->tally.measure >= 0 && c->tally.measured >= c->tally.measure;
    PyObject *result = PyObject_CallNoArgs(done);
    if (result == NULL)
        return -1;
    int holds = PyObject_IsTrue(result);
    Py_DECREF(result);
    return holds;
}

/* Visited cycles between two checks for a pending signal (Ctrl-C). */
#define SIGNAL_CHECK_MASK 4095

/* run(start, end, done): step the cycles from ``start`` that have work,
   jump the idle spans next_event reports (never past ``end``), and stop
   at ``end`` or at the cycle after the one in which ``done()`` came to
   hold; return the cycle it stopped at.  ``done`` may change only inside
   a messages_due call or a delivery, so it is asked on entry and then
   only after a cycle that made one of those: the run stops where checking
   it every cycle would stop it. */
static PyObject *
Core_run(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    i64 now, end;
    if (check_nargs("run", nargs, 3) < 0 || check_ready(c) < 0
        || parse_cycle(args[0], &now) < 0 || parse_cycle(args[1], &end) < 0)
        return NULL;
    PyObject *done = args[2];
    int holds = now < end ? call_done(c, done) : 0;
    while (now < end && !holds) {
        i64 upcoming = next_event(c, now);
        if (upcoming > now) {
            now = upcoming < end ? upcoming : end;
            continue;
        }
        c->progressed = 0;
        if (deliver_cycle(c, now) < 0 || evaluate_cycle(c, now) < 0)
            return NULL;
        now++;
        if ((++c->cycles_visited & SIGNAL_CHECK_MASK) == 0 && PyErr_CheckSignals() < 0)
            return NULL;
        if (c->progressed)
            holds = call_done(c, done);
    }
    if (holds < 0)
        return NULL;
    return PyLong_FromLongLong(now);
}

static int
check_node(Core *c, long node)
{
    if (node < 0 || node >= c->num_nodes) {
        PyErr_Format(PyExc_IndexError, "node %ld out of range", node);
        return -1;
    }
    return 0;
}

/* Lower one interface's wake, and its source's cached due cycle, to
   ``cycle`` (closed-loop sources queue work at a node from outside its
   own evaluation). */
static PyObject *
Core_wake_interface(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("wake_interface", nargs, 2) < 0 || check_ready(c) < 0)
        return NULL;
    long node = PyLong_AsLong(args[0]);
    i64 cycle;
    if ((node == -1 && PyErr_Occurred()) || check_node(c, node) < 0
        || parse_cycle(args[1], &cycle) < 0)
        return NULL;
    if (cycle < c->src_due[node])
        c->src_due[node] = cycle;
    if (cycle < c->ni_wake[node]) {
        c->ni_wake[node] = cycle;
        if (heap_push(c, cycle, (int)node) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

/* -- introspection ---------------------------------------------------------------- */

/* (live message slots, messages queued at interfaces). */
static PyObject *
Core_message_counts(Core *c, PyObject *Py_UNUSED(ignored))
{
    if (check_ready(c) < 0)
        return NULL;
    Py_ssize_t live = 0, queued = 0;
    for (Py_ssize_t s = 0; s < c->slot_n; s++)
        live += c->slots[s].msg != NULL;
    for (int node = 0; node < c->num_nodes; node++)
        queued += c->ni_queue[node].n;
    return Py_BuildValue("(nn)", live, queued);
}

/* Drop a live slot's message without delivering it: the fault the
   message-conservation check exists to catch, for its tests. */
static PyObject *
Core_clear_slot(Core *c, PyObject *arg)
{
    Py_ssize_t slot = PyLong_AsSsize_t(arg);
    if (slot == -1 && PyErr_Occurred())
        return NULL;
    if (check_ready(c) < 0)
        return NULL;
    if (slot < 0 || slot >= c->slot_n || c->slots[slot].msg == NULL) {
        PyErr_Format(PyExc_IndexError, "message slot %zd is not live", slot);
        return NULL;
    }
    Py_CLEAR(c->slots[slot].msg);
    Py_RETURN_NONE;
}

static PyObject *
int_list(const int *values, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    for (Py_ssize_t i = 0; list != NULL && i < n; i++) {
        PyObject *item = PyLong_FromLong(values[i]);
        if (item == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, item);
    }
    return list;
}

static PyObject *
i64_list(const i64 *values, Py_ssize_t n, int never_is_inf)
{
    PyObject *list = PyList_New(n);
    for (Py_ssize_t i = 0; list != NULL && i < n; i++) {
        PyObject *item = never_is_inf && values[i] == NEVER
                             ? PyFloat_FromDouble(Py_HUGE_VAL)
                             : PyLong_FromLongLong(values[i]);
        if (item == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, item);
    }
    return list;
}

static PyObject *
bool_list(const char *values, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    for (Py_ssize_t i = 0; list != NULL && i < n; i++)
        PyList_SET_ITEM(list, i, PyBool_FromLong(values[i]));
    return list;
}

/* Per-row lists: rows[i] = values[i * stride : i * stride + counts[i]]. */
static PyObject *
rows_list(const int *values, const int *counts, Py_ssize_t rows, Py_ssize_t stride)
{
    PyObject *list = PyList_New(rows);
    for (Py_ssize_t i = 0; list != NULL && i < rows; i++) {
        PyObject *row = int_list(values + i * stride, counts[i]);
        if (row == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, row);
    }
    return list;
}

/* Wheel lanes as lists; ``pairs`` lanes become (flit, channel) tuples. */
static PyObject *
lanes_list(const IntVec *lanes, int wheel, int pairs)
{
    PyObject *list = PyList_New(wheel);
    for (int i = 0; list != NULL && i < wheel; i++) {
        const IntVec *lane = &lanes[i];
        PyObject *entries;
        if (!pairs) {
            entries = int_list(lane->v, lane->n);
        }
        else {
            entries = PyList_New(lane->n / 2);
            for (Py_ssize_t k = 0; entries != NULL && k < lane->n / 2; k++) {
                PyObject *pair = Py_BuildValue("(ii)", lane->v[2 * k], lane->v[2 * k + 1]);
                if (pair == NULL)
                    Py_CLEAR(entries);
                else
                    PyList_SET_ITEM(entries, k, pair);
            }
        }
        if (entries == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, entries);
    }
    return list;
}

/* One int field of every message slot, as a list. */
static PyObject *
slot_field(Core *c, size_t offset)
{
    PyObject *list = PyList_New(c->slot_n);
    for (Py_ssize_t s = 0; list != NULL && s < c->slot_n; s++) {
        PyObject *item = PyLong_FromLong(*(int *)((char *)&c->slots[s] + offset));
        if (item == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, s, item);
    }
    return list;
}

static int
put(PyObject *dict, const char *key, PyObject *value)
{
    if (value == NULL)
        return -1;
    int status = PyDict_SetItemString(dict, key, value);
    Py_DECREF(value);
    return status;
}

/* A snapshot of every state array as plain Python lists (tests and
   debugging; O(state) per call). */
static PyObject *
Core_state(Core *c, PyObject *Py_UNUSED(ignored))
{
    if (check_ready(c) < 0)
        return NULL;
    PyObject *d = PyDict_New();
    if (d == NULL)
        return NULL;
    int nc = c->num_channels, np = c->num_ports, nn = c->num_nodes;

    PyObject *in_buf = PyList_New(nc);
    for (int g = 0; in_buf != NULL && g < nc; g++) {
        PyObject *flits = PyList_New(c->buf_len[g]);
        for (int i = 0; flits != NULL && i < c->buf_len[g]; i++)
            PyList_SET_ITEM(flits, i, PyLong_FromLong(
                c->buf[(i64)g * c->capacity + (c->buf_head[g] + i) % c->capacity]));
        if (flits == NULL)
            Py_CLEAR(in_buf);
        else
            PyList_SET_ITEM(in_buf, g, flits);
    }
    PyObject *in_state = PyList_New(nc);
    for (int g = 0; in_state != NULL && g < nc; g++)
        PyList_SET_ITEM(in_state, g, PyLong_FromLong(c->in_state[g]));
    PyObject *slot_msg = PyList_New(c->slot_n);
    for (Py_ssize_t s = 0; slot_msg != NULL && s < c->slot_n; s++) {
        PyObject *message = c->slots[s].msg ? c->slots[s].msg : Py_None;
        Py_INCREF(message);
        PyList_SET_ITEM(slot_msg, s, message);
    }
    PyObject *ni_queue = PyList_New(nn);
    for (int node = 0; ni_queue != NULL && node < nn; node++) {
        Queue *q = &c->ni_queue[node];
        PyObject *items = PyList_New(q->n);
        for (Py_ssize_t i = 0; items != NULL && i < q->n; i++) {
            Py_INCREF(QUEUE_AT(q, i));
            PyList_SET_ITEM(items, i, QUEUE_AT(q, i));
        }
        if (items == NULL)
            Py_CLEAR(ni_queue);
        else
            PyList_SET_ITEM(ni_queue, node, items);
    }
    PyObject *heap = PyList_New(c->heap_n);
    for (Py_ssize_t i = 0; heap != NULL && i < c->heap_n; i++) {
        PyObject *entry = Py_BuildValue("(Li)", c->heap[i].wake, c->heap[i].node);
        if (entry == NULL)
            Py_CLEAR(heap);
        else
            PyList_SET_ITEM(heap, i, entry);
    }
    Py_ssize_t filled = 0;
    if (c->decisions != NULL)
        for (i64 i = 0; i < (i64)nn * c->n_classes; i++)
            filled += c->decisions[i].filled;
    PyObject *pools = PyList_New(c->radix);
    for (int port = 0; pools != NULL && port < c->radix; port++) {
        int p0 = port * 2, p1 = port * 2 + 1;
        PyObject *pair = PyTuple_New(2);
        PyObject *a = int_list(c->pools + p0 * c->vcs, c->pool_n[p0]);
        PyObject *b = int_list(c->pools + p1 * c->vcs, c->pool_n[p1]);
        PyObject *ta = a ? PyList_AsTuple(a) : NULL, *tb = b ? PyList_AsTuple(b) : NULL;
        Py_XDECREF(a);
        Py_XDECREF(b);
        if (pair == NULL || ta == NULL || tb == NULL) {
            Py_XDECREF(pair);
            Py_XDECREF(ta);
            Py_XDECREF(tb);
            Py_CLEAR(pools);
            break;
        }
        PyTuple_SET_ITEM(pair, 0, ta);
        PyTuple_SET_ITEM(pair, 1, tb);
        PyList_SET_ITEM(pools, port, pair);
    }

    if (put(d, "num_nodes", PyLong_FromLong(nn)) < 0
        || put(d, "radix", PyLong_FromLong(c->radix)) < 0
        || put(d, "vcs", PyLong_FromLong(c->vcs)) < 0
        || put(d, "wheel_size", PyLong_FromLong(c->wheel)) < 0
        || put(d, "escape_pools", pools) < 0
        || put(d, "busy", int_list(c->busy, c->busy_n)) < 0
        || put(d, "routing_members", rows_list(c->rm, c->rm_n, nn, c->per_node)) < 0
        || put(d, "active_members", rows_list(c->am, c->am_n, nn, c->per_node)) < 0
        || put(d, "released", bool_list(c->released, nn)) < 0
        || put(d, "headers_routed", i64_list(c->headers_routed, nn, 0)) < 0
        || put(d, "in_buf", in_buf) < 0
        || put(d, "in_state", in_state) < 0
        || put(d, "in_ready", i64_list(c->in_ready, nc, 0)) < 0
        || put(d, "in_out_g", int_list(c->in_out_g, nc)) < 0
        || put(d, "in_out_port", int_list(c->in_out_port, nc)) < 0
        || put(d, "out_credits", int_list(c->out_credits, nc)) < 0
        || put(d, "out_owner", int_list(c->out_owner, nc)) < 0
        || put(d, "go_flit_dest", int_list(c->go_flit_dest, nc)) < 0
        || put(d, "g_credit_dest", int_list(c->g_credit_dest, nc)) < 0
        || put(d, "out_connected", bool_list(c->out_connected, np)) < 0
        || put(d, "out_usage", i64_list(c->out_usage, np, 0)) < 0
        || put(d, "out_last_used", i64_list(c->out_last_used, np, 0)) < 0
        || put(d, "in_prio", int_list(c->in_prio, np)) < 0
        || put(d, "out_prio", int_list(c->out_prio, np)) < 0
        || put(d, "slot_msg", slot_msg) < 0
        || put(d, "slot_dest", slot_field(c, offsetof(Slot, dest))) < 0
        || put(d, "slot_mask", slot_field(c, offsetof(Slot, mask))) < 0
        || put(d, "slot_hops", slot_field(c, offsetof(Slot, hops))) < 0
        || put(d, "slot_la_node", slot_field(c, offsetof(Slot, la_node))) < 0
        || put(d, "decision_entries", PyLong_FromSsize_t(filled)) < 0
        || put(d, "decision_lookups", PyLong_FromLongLong(c->decision_lookups)) < 0
        || put(d, "decision_fills", PyLong_FromLongLong(c->decision_fills)) < 0
        || put(d, "slot_free", int_list(c->slot_free.v, c->slot_free.n)) < 0
        || put(d, "ni_credits", int_list(c->ni_credits, c->num_slots)) < 0
        || put(d, "ni_left", int_list(c->ni_left, c->num_slots)) < 0
        || put(d, "ni_slot", int_list(c->ni_slot, c->num_slots)) < 0
        || put(d, "ni_next_slot", int_list(c->ni_next_slot, nn)) < 0
        || put(d, "ni_queue", ni_queue) < 0
        || put(d, "ni_wake", i64_list(c->ni_wake, nn, 1)) < 0
        || put(d, "src_due", i64_list(c->src_due, nn, 1)) < 0
        || put(d, "cycles_visited", PyLong_FromLongLong(c->cycles_visited)) < 0
        || put(d, "ni_heap", heap) < 0
        || put(d, "ni_soon", int_list(c->soon.v, c->soon.n)) < 0
        || put(d, "flit_lanes", lanes_list(c->flit_lanes, c->wheel, 1)) < 0
        || put(d, "credit_lanes", lanes_list(c->credit_lanes, c->wheel, 0)) < 0
        || put(d, "eject_lanes", lanes_list(c->eject_lanes, c->wheel, 1)) < 0
        || put(d, "ni_credit_lanes", lanes_list(c->ni_credit_lanes, c->wheel, 0)) < 0
        || put(d, "pending", Py_BuildValue("(nnnn)", c->flit_pending, c->credit_pending,
                                           c->eject_pending, c->ni_credit_pending)) < 0) {
        Py_DECREF(d);
        return NULL;
    }
    return d;
}

/* The delivery accounting StatsCollector.summary reads: (delivered,
   measured, measured flits, first measured delivery cycle or None, last
   delivery cycle, the total latency's, network latency's and hops'
   (count, mean, variance, minimum, maximum), p50, p99 of the total
   latency). */
static PyObject *
Core_tally(Core *c, PyObject *Py_UNUSED(ignored))
{
    if (check_ready(c) < 0)
        return NULL;
    const Tally *t = &c->tally;
    PyObject *parts[6] = {
        t->first < 0 ? Py_NewRef(Py_None) : PyLong_FromLongLong(t->first),
        moments_tuple(&t->total), moments_tuple(&t->network), moments_tuple(&t->hops),
        p2_value(&t->p50), p2_value(&t->p99),
    };
    PyObject *result = NULL;
    if (parts[0] && parts[1] && parts[2] && parts[3] && parts[4] && parts[5])
        result = Py_BuildValue("(LLLOLOOOOO)", t->delivered, t->measured, t->measured_flits,
                               parts[0], t->last, parts[1], parts[2], parts[3], parts[4],
                               parts[5]);
    for (int i = 0; i < 6; i++)
        Py_XDECREF(parts[i]);
    return result;
}

/* Per-node header counters (True), or the flits each node's crossbar
   forwarded (False): the sum of its output ports' use counters. */
static PyObject *
Core_counters(Core *c, PyObject *arg)
{
    if (check_ready(c) < 0)
        return NULL;
    int headers = PyObject_IsTrue(arg);
    if (headers < 0)
        return NULL;
    if (headers)
        return i64_list(c->headers_routed, c->num_nodes, 0);
    PyObject *list = PyList_New(c->num_nodes);
    for (int node = 0; list != NULL && node < c->num_nodes; node++) {
        i64 forwarded = 0;
        for (int port = 0; port < c->radix; port++)
            forwarded += c->out_usage[node * c->radix + port];
        PyObject *value = PyLong_FromLongLong(forwarded);
        if (value == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, node, value);
    }
    return list;
}

/* -- construction ------------------------------------------------------------------ */

static int
spec_int(PyObject *spec, const char *key, int *out)
{
    PyObject *value = PyDict_GetItemString(spec, key);
    if (value == NULL) {
        PyErr_Format(PyExc_KeyError, "core spec lacks %s", key);
        return -1;
    }
    long number = PyLong_AsLong(value);
    if (number == -1 && PyErr_Occurred())
        return -1;
    if (number < INT_MIN || number > INT_MAX) {
        PyErr_Format(PyExc_OverflowError, "core spec %s out of range", key);
        return -1;
    }
    *out = (int)number;
    return 0;
}

/* Copy the int sequence spec[key] (at most ``n`` long) into ``out``;
   its length goes to ``*count`` (which must equal ``n`` when NULL). */
static int
spec_ints(PyObject *value, const char *key, Py_ssize_t n, int *out, int *count)
{
    PyObject *fast = PySequence_Fast(value, "core spec entries must be sequences");
    if (fast == NULL)
        return -1;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(fast);
    if (count == NULL ? len != n : len > n) {
        PyErr_Format(PyExc_ValueError, "core spec %s has %zd entries, expected %zd", key, len,
                     n);
        Py_DECREF(fast);
        return -1;
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        long number = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if (number == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        out[i] = (int)number;
    }
    if (count != NULL)
        *count = (int)len;
    Py_DECREF(fast);
    return 0;
}

static int
spec_array(PyObject *spec, const char *key, Py_ssize_t n, int *out)
{
    PyObject *value = PyDict_GetItemString(spec, key);
    if (value == NULL) {
        PyErr_Format(PyExc_KeyError, "core spec lacks %s", key);
        return -1;
    }
    return spec_ints(value, key, n, out, NULL);
}

#define ALLOC(field, n)                                                   \
    do {                                                                  \
        c->field = PyMem_Calloc((size_t)(n) + 1, sizeof(*c->field));      \
        if (c->field == NULL) {                                           \
            PyErr_NoMemory();                                             \
            return -1;                                                    \
        }                                                                 \
    } while (0)

/* Largest decision table, in entries (the module's MAX_DECISIONS). */
#define MAX_DECISIONS (1 << 20)

/* The per-node selector kinds and, under a sign rule, the node
   coordinates and the decision table: spec's selector_kinds, mesh_dims
   (the extents, dimension 0 fastest in the node id) and decision_table, a
   writable buffer of num_nodes * 3^n_dims zeroed or earlier-filled
   entries of DECISION_BYTES each.  A filled entry is checked once here,
   since another core wrote it. */
static int
init_decisions(Core *c, PyObject *spec)
{
    int nn = c->num_nodes;
    ALLOC(sel_kind, nn);
    if (spec_array(spec, "selector_kinds", nn, c->sel_kind) < 0)
        return -1;
    for (int node = 0; node < nn; node++)
        if (c->sel_kind[node] < SEL_PYTHON || c->sel_kind[node] > SEL_MAX_CREDIT)
            return PyErr_SetString(PyExc_ValueError, "selector kind out of range"), -1;
    if (c->sign_rule == SIGNS_NONE)
        return 0;
    if (c->sign_rule != SIGNS_MESH && c->sign_rule != SIGNS_TORUS)
        return PyErr_SetString(PyExc_ValueError, "sign_rule must be 0, 1 or 2"), -1;
    c->n_dims = (c->radix - 1) / 2;
    ALLOC(dims, c->n_dims);
    ALLOC(coords, (i64)nn * c->n_dims);
    if (spec_array(spec, "mesh_dims", c->n_dims, c->dims) < 0)
        return -1;
    i64 nodes = 1;
    for (int d = 0; d < c->n_dims && nodes <= nn; d++)
        nodes = c->dims[d] > 0 ? nodes * c->dims[d] : 0;
    if (c->radix != 2 * c->n_dims + 1 || nodes != nn)
        return PyErr_SetString(PyExc_ValueError, "mesh_dims do not match the radix and nodes"),
               -1;
    for (int node = 0; node < nn; node++)
        for (int d = 0, rest = node; d < c->n_dims; rest /= c->dims[d], d++)
            c->coords[(i64)node * c->n_dims + d] = rest % c->dims[d];
    c->n_classes = 1;
    for (int d = 0; d < c->n_dims && (i64)nn * c->n_classes <= MAX_DECISIONS; d++)
        c->n_classes *= 3;
    if ((i64)nn * c->n_classes > MAX_DECISIONS)
        return PyErr_SetString(PyExc_ValueError, "decision table too large"), -1;
    PyObject *table = PyDict_GetItemString(spec, "decision_table");
    if (table == NULL)
        return PyErr_SetString(PyExc_KeyError, "core spec lacks decision_table"), -1;
    if (PyObject_GetBuffer(table, &c->decision_view, PyBUF_WRITABLE) < 0)
        return -1;
    i64 entries = (i64)nn * c->n_classes;
    if (c->decision_view.len != entries * (i64)sizeof(Decision))
        return PyErr_SetString(PyExc_ValueError,
                               "decision_table must hold num_nodes * 3^n_dims entries"),
               -1;
    c->decisions = c->decision_view.buf;
    for (i64 i = 0; i < entries; i++) {
        const Decision *entry = &c->decisions[i];
        int ok = entry->filled == 0
                 || (entry->filled == 1 && entry->n >= 0 && entry->n <= c->radix
                     && entry->escape >= -1 && entry->escape < c->radix);
        for (int k = 0; ok && entry->filled && k < entry->n; k++)
            ok = entry->ports[k] < c->radix;
        if (!ok)
            return PyErr_SetString(PyExc_ValueError, "decision_table entry out of range"), -1;
    }
    return 0;
}

static int
Core_init(Core *c, PyObject *args, PyObject *kwargs)
{
    PyObject *spec, *decide, *selectors, *sources, *stats, *status_cls;
    static char *keywords[] = {"spec", "decide", "selectors", "sources", "stats",
                               "status_cls", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!OO!O!OO:Core", keywords, &PyDict_Type,
                                     &spec, &decide, &PyList_Type, &selectors, &PyList_Type,
                                     &sources, &stats, &status_cls))
        return -1;
    if (c->ready) {
        PyErr_SetString(PyExc_RuntimeError, "a flat core is initialised once");
        return -1;
    }
    if (spec_int(spec, "num_nodes", &c->num_nodes) < 0 || spec_int(spec, "radix", &c->radix) < 0
        || spec_int(spec, "vcs", &c->vcs) < 0 || spec_int(spec, "capacity", &c->capacity) < 0
        || spec_int(spec, "atomic_credits", &c->atomic) < 0
        || spec_int(spec, "selection_offset", &c->selection_offset) < 0
        || spec_int(spec, "lookahead", &c->lookahead) < 0
        || spec_int(spec, "local_delay", &c->local_delay) < 0
        || spec_int(spec, "link_delay", &c->link_delay) < 0
        || spec_int(spec, "credit_delay", &c->credit_delay) < 0
        || spec_int(spec, "wheel_size", &c->wheel) < 0)
        return -1;
    if (c->num_nodes < 1 || c->radix < 1 || c->radix > MAX_RADIX || c->vcs < 1
        || c->capacity < 1 || c->wheel < 1) {
        PyErr_SetString(PyExc_ValueError, "core spec shape out of range");
        return -1;
    }
    if (PyList_GET_SIZE(selectors) != c->num_nodes || PyList_GET_SIZE(sources) != c->num_nodes) {
        PyErr_SetString(PyExc_ValueError, "one selector and one source per node expected");
        return -1;
    }
    int nn = c->num_nodes;
    c->per_node = c->radix * c->vcs;
    c->num_ports = nn * c->radix;
    c->num_channels = nn * c->per_node;
    c->num_slots = nn * c->vcs;
    int np = c->num_ports, nc = c->num_channels;

    ALLOC(adaptive_vcs, c->vcs);
    ALLOC(pools, 2 * c->radix * c->vcs);
    ALLOC(pool_n, 2 * c->radix);
    ALLOC(port_dimension, c->radix);
    ALLOC(port_hop_delay, c->radix);
    ALLOC(dateline_bits, np);
    ALLOC(port_neighbor, np);
    ALLOC(in_prio, np);
    ALLOC(out_prio, np);
    ALLOC(out_connected, np);
    ALLOC(out_usage, np);
    ALLOC(out_last_used, np);
    ALLOC(buf, (i64)nc * c->capacity);
    ALLOC(buf_head, nc);
    ALLOC(buf_len, nc);
    ALLOC(in_state, nc);
    ALLOC(in_ready, nc);
    ALLOC(in_out_g, nc);
    ALLOC(in_out_port, nc);
    ALLOC(out_credits, nc);
    ALLOC(out_owner, nc);
    ALLOC(go_flit_dest, nc);
    ALLOC(g_credit_dest, nc);
    ALLOC(rm, nc);
    ALLOC(rm_n, nn);
    ALLOC(am, nc);
    ALLOC(am_n, nn);
    ALLOC(busy, nn);
    ALLOC(released, nn);
    ALLOC(headers_routed, nn);
    ALLOC(ni_credits, c->num_slots);
    ALLOC(ni_left, c->num_slots);
    ALLOC(ni_slot, c->num_slots);
    ALLOC(ni_next_slot, nn);
    ALLOC(ni_queue, nn);
    ALLOC(ni_wake, nn);
    ALLOC(src_due, nn);
    ALLOC(due_mark, nn);
    ALLOC(snap, c->per_node);
    ALLOC(flit_lanes, c->wheel);
    ALLOC(credit_lanes, c->wheel);
    ALLOC(eject_lanes, c->wheel);
    ALLOC(ni_credit_lanes, c->wheel);

    PyObject *pools = PyDict_GetItemString(spec, "escape_pools");
    PyObject *fast = pools ? PySequence_Fast(pools, "escape_pools must be a sequence") : NULL;
    if (fast == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_KeyError, "core spec lacks escape_pools");
        return -1;
    }
    int ok = PySequence_Fast_GET_SIZE(fast) == c->radix;
    for (int port = 0; ok && port < c->radix; port++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(fast, port);
        ok = PySequence_Check(pair) && PySequence_Size(pair) == 2;
        for (int cls = 0; ok && cls < 2; cls++) {
            PyObject *pool = PySequence_GetItem(pair, cls);
            ok = pool != NULL
                 && spec_ints(pool, "escape_pools", c->vcs, c->pools + (port * 2 + cls) * c->vcs,
                              &c->pool_n[port * 2 + cls]) == 0;
            Py_XDECREF(pool);
        }
    }
    Py_DECREF(fast);
    if (!ok) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "escape_pools needs a (class 0, class 1) pair per port");
        return -1;
    }
    PyObject *adaptive = PyDict_GetItemString(spec, "adaptive_vcs");
    if (adaptive == NULL) {
        PyErr_SetString(PyExc_KeyError, "core spec lacks adaptive_vcs");
        return -1;
    }
    if (spec_ints(adaptive, "adaptive_vcs", c->vcs, c->adaptive_vcs, &c->n_adaptive) < 0
        || spec_array(spec, "port_dimension", c->radix, c->port_dimension) < 0
        || spec_array(spec, "port_hop_delay", c->radix, c->port_hop_delay) < 0
        || spec_array(spec, "dateline_bits", np, c->dateline_bits) < 0
        || spec_array(spec, "port_neighbor", np, c->port_neighbor) < 0
        || spec_array(spec, "go_flit_dest", nc, c->go_flit_dest) < 0
        || spec_array(spec, "g_credit_dest", nc, c->g_credit_dest) < 0)
        return -1;
    int *connected = PyMem_Calloc((size_t)np, sizeof(int));
    if (connected == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (spec_array(spec, "out_connected", np, connected) < 0) {
        PyMem_Free(connected);
        return -1;
    }
    for (int p = 0; p < np; p++)
        c->out_connected[p] = connected[p] != 0;
    PyMem_Free(connected);
    /* Every table entry indexes an array: refuse any that would not. */
    for (int g = 0; g < nc; g++) {
        if (c->go_flit_dest[g] >= nc || c->g_credit_dest[g] >= nc
            || -c->g_credit_dest[g] - 1 >= c->num_slots) {
            PyErr_Format(PyExc_ValueError, "wiring table entry of channel %d out of range", g);
            return -1;
        }
    }
    for (int p = 0; p < np; p++) {
        if (c->port_neighbor[p] >= nn) {
            PyErr_Format(PyExc_ValueError, "port %d leads to node %d out of range", p,
                         c->port_neighbor[p]);
            return -1;
        }
    }
    for (int i = 0; i < c->n_adaptive; i++)
        if (c->adaptive_vcs[i] < 0 || c->adaptive_vcs[i] >= c->vcs)
            return PyErr_SetString(PyExc_ValueError, "adaptive VC out of range"), -1;
    for (int p = 0; p < 2 * c->radix; p++)
        for (int i = 0; i < c->pool_n[p]; i++)
            if (c->pools[p * c->vcs + i] < 0 || c->pools[p * c->vcs + i] >= c->vcs)
                return PyErr_SetString(PyExc_ValueError, "escape VC out of range"), -1;
    for (int port = 0; port < c->radix; port++)
        if (c->port_hop_delay[port] < 1 || c->port_hop_delay[port] >= c->wheel
            || c->port_dimension[port] < 0 || c->port_dimension[port] > 30)
            return PyErr_SetString(PyExc_ValueError, "port delay or dimension out of range"), -1;
    if (c->link_delay < 1 || c->link_delay >= c->wheel || c->local_delay < 1
        || c->local_delay >= c->wheel || c->credit_delay < 1 || c->credit_delay >= c->wheel) {
        PyErr_SetString(PyExc_ValueError, "delays must lie in 1 .. wheel_size - 1");
        return -1;
    }

    if (spec_int(spec, "sign_rule", &c->sign_rule) < 0 || init_decisions(c, spec) < 0)
        return -1;
    int warmup, measure;
    PyObject *callbacks = PyDict_GetItemString(spec, "delivery_callbacks");
    if (spec_int(spec, "warmup_messages", &warmup) < 0
        || spec_int(spec, "measure_messages", &measure) < 0)
        return -1;
    if (callbacks == NULL || !PyList_Check(callbacks) || warmup < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "core spec needs warmup_messages >= 0 and a delivery_callbacks list");
        return -1;
    }
    tally_init(&c->tally, warmup, measure);

    for (int g = 0; g < nc; g++) {
        c->in_out_g[g] = -1;
        c->in_out_port[g] = -1;
        c->out_credits[g] = c->capacity;
        c->out_owner[g] = -1;
    }
    for (int p = 0; p < np; p++)
        c->out_last_used[p] = -1;
    for (int s = 0; s < c->num_slots; s++) {
        c->ni_credits[s] = c->capacity;
        c->ni_slot[s] = -1;
    }
    /* Every interface starts active at cycle 0, like kernel registration;
       each source's due cycle is read once here. */
    for (int node = 0; node < nn; node++) {
        PyObject *source = PyList_GET_ITEM(sources, node);
        c->src_due[node] = source == Py_None ? NEVER : 0;
        if ((source != Py_None && refresh_due(c, node, source) < 0) || heap_push(c, 0, node) < 0)
            return -1;
    }

    c->n_ints = nn > c->per_node ? nn : c->per_node;
    ALLOC(ints, c->n_ints);
    for (int i = 0; i < c->n_ints; i++)
        if ((c->ints[i] = PyLong_FromLong(i)) == NULL)
            return -1;
    Py_INCREF(decide);
    c->decide = decide;
    Py_INCREF(selectors);
    c->selectors = selectors;
    Py_INCREF(sources);
    c->sources = sources;
    Py_INCREF(stats);
    c->stats = stats;
    Py_INCREF(status_cls);
    c->status_cls = status_cls;
    Py_INCREF(callbacks);
    c->callbacks = callbacks;
    c->ready = 1;
    return 0;
}

/* -- garbage collection and deallocation ------------------------------------------- */

static int
Core_traverse(Core *c, visitproc visit, void *arg)
{
    Py_VISIT(c->decide);
    Py_VISIT(c->selectors);
    Py_VISIT(c->sources);
    Py_VISIT(c->stats);
    Py_VISIT(c->status_cls);
    Py_VISIT(c->callbacks);
    for (Py_ssize_t s = 0; s < c->slot_n; s++)
        Py_VISIT(c->slots[s].msg);
    if (c->ni_queue != NULL)
        for (int node = 0; node < c->num_nodes; node++)
            for (Py_ssize_t i = 0; i < c->ni_queue[node].n; i++)
                Py_VISIT(QUEUE_AT(&c->ni_queue[node], i));
    return 0;
}

static int
Core_clear(Core *c)
{
    c->ready = 0;
    Py_CLEAR(c->decide);
    Py_CLEAR(c->selectors);
    Py_CLEAR(c->sources);
    Py_CLEAR(c->stats);
    Py_CLEAR(c->status_cls);
    Py_CLEAR(c->callbacks);
    for (Py_ssize_t s = 0; s < c->slot_n; s++)
        Py_CLEAR(c->slots[s].msg);
    if (c->ni_queue != NULL)
        for (int node = 0; node < c->num_nodes; node++) {
            Queue *q = &c->ni_queue[node];
            while (q->n) {
                PyObject *item = queue_pop(q);
                Py_DECREF(item);
            }
        }
    return 0;
}

static void
Core_dealloc(Core *c)
{
    PyObject_GC_UnTrack(c);
    Core_clear(c);
    if (c->ints != NULL)
        for (int i = 0; i < c->n_ints; i++)
            Py_XDECREF(c->ints[i]);
    if (c->ni_queue != NULL)
        for (int node = 0; node < c->num_nodes; node++)
            PyMem_Free(c->ni_queue[node].v);
    IntVec *wheels[4] = {c->flit_lanes, c->credit_lanes, c->eject_lanes, c->ni_credit_lanes};
    for (int w = 0; w < 4; w++)
        if (wheels[w] != NULL)
            for (int i = 0; i < c->wheel; i++)
                PyMem_Free(wheels[w][i].v);
    void *arrays[] = {
        c->adaptive_vcs, c->pools, c->pool_n, c->port_dimension, c->port_hop_delay,
        c->dateline_bits, c->port_neighbor, c->in_prio, c->out_prio, c->out_connected,
        c->out_usage, c->out_last_used, c->buf, c->buf_head, c->buf_len, c->in_state,
        c->in_ready, c->in_out_g, c->in_out_port, c->out_credits, c->out_owner,
        c->go_flit_dest, c->g_credit_dest, c->rm, c->rm_n, c->am, c->am_n, c->busy,
        c->released, c->headers_routed, c->slots, c->slot_free.v, c->ni_credits, c->ni_left,
        c->ni_slot, c->ni_next_slot, c->ni_queue,
        c->ni_wake, c->src_due, c->heap, c->soon.v, c->due.v, c->due_mark, c->flit_lanes, c->credit_lanes,
        c->eject_lanes, c->ni_credit_lanes, c->snap, c->dims, c->coords, c->sel_kind,
        c->ints,
    };
    for (size_t i = 0; i < sizeof(arrays) / sizeof(arrays[0]); i++)
        PyMem_Free(arrays[i]);
    if (c->decision_view.obj != NULL)
        PyBuffer_Release(&c->decision_view);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static PyMethodDef Core_methods[] = {
    {"deliver", (PyCFunction)Core_deliver, METH_O, "Drain the four arrival wheels for a cycle."},
    {"evaluate", (PyCFunction)Core_evaluate, METH_O,
     "Run the busy routers' pass, then the due interfaces' injection."},
    {"next_event_cycle", (PyCFunction)Core_next_event_cycle, METH_O,
     "Earliest cycle (>= cycle) at which anything has work, or None."},
    {"run", (PyCFunction)(void (*)(void))Core_run, METH_FASTCALL,
     "run(start, end, done): step and jump from start until end or done(); "
     "return the cycle it stopped at."},
    {"wake_interface", (PyCFunction)(void (*)(void))Core_wake_interface, METH_FASTCALL,
     "Lower one interface's wake cycle: wake_interface(node, cycle)."},
    {"message_counts", (PyCFunction)Core_message_counts, METH_NOARGS,
     "(live message slots, messages queued at interfaces)."},
    {"clear_slot", (PyCFunction)Core_clear_slot, METH_O,
     "Drop a live slot's message without delivering it (conservation tests)."},
    {"state", (PyCFunction)Core_state, METH_NOARGS,
     "Every state array as plain Python lists, in a dict."},
    {"counters", (PyCFunction)Core_counters, METH_O,
     "Per-node headers_routed (True) or flits_forwarded (False) counters."},
    {"tally", (PyCFunction)Core_tally, METH_NOARGS,
     "The delivery accounting StatsCollector.summary reads, as a tuple."},
    {NULL, NULL, 0, NULL},
};

/* latency_stats(samples): the ints ``samples`` fed in order through the
   accumulators the core keeps per measured message -- ((count, mean,
   variance, minimum, maximum), p50, p99) -- for comparison with
   RunningStats and P2Quantile. */
static PyObject *
latency_stats(PyObject *Py_UNUSED(module), PyObject *samples)
{
    PyObject *fast = PySequence_Fast(samples, "latency_stats needs a sequence of ints");
    if (fast == NULL)
        return NULL;
    Tally t;
    tally_init(&t, 0, -1);
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
        i64 value = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (value == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return NULL;
        }
        moments_add(&t.total, value);
        p2_add(&t.p50, value);
        p2_add(&t.p99, value);
    }
    Py_DECREF(fast);
    PyObject *parts[3] = {moments_tuple(&t.total), p2_value(&t.p50), p2_value(&t.p99)};
    PyObject *result = NULL;
    if (parts[0] && parts[1] && parts[2])
        result = PyTuple_Pack(3, parts[0], parts[1], parts[2]);
    for (int i = 0; i < 3; i++)
        Py_XDECREF(parts[i]);
    return result;
}

static PyMethodDef module_methods[] = {
    {"latency_stats", latency_stats, METH_O,
     "((count, mean, variance, minimum, maximum), p50, p99) of a stream of ints."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.network._flatcore.Core",
    .tp_basicsize = sizeof(Core),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The flat network core's state and per-cycle work.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Core_init,
    .tp_traverse = (traverseproc)Core_traverse,
    .tp_clear = (inquiry)Core_clear,
    .tp_dealloc = (destructor)Core_dealloc,
    .tp_methods = Core_methods,
};

static struct PyModuleDef flatcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_flatcore",
    .m_doc = "The flat network core's per-cycle work (see repro.network.flatcore).",
    .m_size = -1,
    .m_methods = module_methods,
};

#define INTERN(var, text)                                  \
    if ((var = PyUnicode_InternFromString(text)) == NULL)   \
    return NULL

PyMODINIT_FUNC
PyInit__flatcore(void)
{
    INTERN(s_select, "select");
    INTERN(s_messages_due, "messages_due");
    INTERN(s_next_due_cycle, "next_due_cycle");
    INTERN(s_record_created, "record_created");
    INTERN(s_hops, "hops");
    INTERN(s_injection_cycle, "injection_cycle");
    INTERN(s_ejection_cycle, "ejection_cycle");
    INTERN(s_creation_index, "creation_index");
    INTERN(s_creation_cycle, "creation_cycle");
    INTERN(s_destination, "destination");
    INTERN(s_length, "length");
    INTERN(s_adaptive_ports, "adaptive_ports");
    INTERN(s_escape_port, "escape_port");
    if (PyType_Ready(&CoreType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&flatcore_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "MAX_DECISIONS", MAX_DECISIONS) < 0
        || PyModule_AddIntConstant(module, "DECISION_BYTES", sizeof(Decision)) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&CoreType);
    if (PyModule_AddObject(module, "Core", (PyObject *)&CoreType) < 0) {
        Py_DECREF(&CoreType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
