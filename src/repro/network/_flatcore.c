/* The flat network core's per-cycle work, as a CPython extension.
 *
 * repro.network.flatcore computes the wiring tables of a network once in
 * Python and hands them to Core(); from then on every cycle's work --
 * the four arrival-wheel drains, virtual-channel allocation, the two
 * switch-allocation stages and crossbar forwarding over the busy-router
 * worklist, the injection pass over the interfaces the wake heap reports
 * due, and next_event_cycle -- runs here.  The module docstring of
 * repro.network.flatcore describes the model, the address spaces and
 * the scheduling state; this file replays the object core
 * (repro.router.router.Router, repro.network.interface.NetworkInterface)
 * phase for phase, so results stay bit-identical to it.
 *
 * Python is called back only where the randomness, plugins and
 * statistics live, in the object core's order: the routing algorithm's
 * decide_cached (bound at build), selectors[node].select / record_use,
 * source.messages_due / next_due_cycle, and the statistics collector's
 * record_created / record_injected / record_delivered.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
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

/* Interned attribute and method names. */
static PyObject *s_select, *s_record_use, *s_messages_due, *s_next_due_cycle,
    *s_record_created, *s_record_injected, *s_record_delivered, *s_hops,
    *s_injection_cycle, *s_ejection_cycle, *s_destination, *s_length,
    *s_adaptive_ports, *s_escape_port;

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

/* -- message slots ----------------------------------------------------------- */

/* Header state of one message in flight: the message, its destination and
   length, the dateline mask, the look-ahead node and decision, and the
   cycle the header last reached a buffer. */
typedef struct {
    PyObject *msg, *la_dec;
    i64 arrival;
    int dest, len, mask, la_node;
} Slot;

/* -- the core -------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    int ready; /* set once __init__ has built every array */

    /* Shape and timing constants. */
    int num_nodes, radix, vcs, per_node, num_ports, num_channels, num_slots;
    int capacity, atomic, selection_offset, lookahead;
    int local_delay, link_delay, credit_delay, wheel;
    int selector_records;

    /* Virtual-channel classes: the adaptive VCs, and per port the two
       dateline-class escape pools at pools[(port * 2 + cls) * vcs]. */
    int n_adaptive, n_escape;
    int *adaptive_vcs, *pools, *pool_n;
    int *port_dimension, *port_hop_delay;

    /* Per global port. */
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
       (rows of per_node entries), the busy worklist and the counters. */
    int *rm, *rm_n, *am, *am_n, *busy;
    int busy_n;
    char *released;
    i64 *flits_forwarded, *headers_routed;

    /* Message slots. */
    Slot *slots;
    Py_ssize_t slot_n, slot_cap;
    IntVec slot_free;

    /* Injection / ejection interfaces. */
    int *ni_credits, *ni_left, *ni_slot, *ni_next_slot;
    Queue *ni_queue;
    i64 *ni_wake;
    HeapEntry *heap;
    Py_ssize_t heap_n, heap_cap;
    IntVec soon, due;
    char *due_mark;

    /* Arrival wheels: flit lanes hold (flit, input channel) pairs, eject
       lanes (flit, local output channel) pairs, credit lanes output
       channels and injection-credit lanes injection slots. */
    IntVec *flit_lanes, *credit_lanes, *eject_lanes, *ni_credit_lanes;
    Py_ssize_t flit_pending, credit_pending, eject_pending, ni_credit_pending;

    /* Scratch for one allocation attempt / one router's ROUTING snapshot. */
    int *snap;
    IntVec cand;

    /* Python collaborators. */
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

static PyObject *
call_decide(Core *c, int node, int destination)
{
    PyObject *args[2];
    args[0] = small_int(c, node);
    args[1] = small_int(c, destination);
    PyObject *decision = NULL;
    if (args[0] != NULL && args[1] != NULL)
        decision = PyObject_Vectorcall(c->decide, args, 2, NULL);
    Py_XDECREF(args[0]);
    Py_XDECREF(args[1]);
    return decision;
}

/* Take a message slot for ``message`` and reset its header state (the
   arrival cycle is written when the header reaches a buffer). */
static int
new_slot(Core *c, PyObject *message)
{
    long destination, length;
    if (int_attr(message, s_destination, &destination) < 0
        || int_attr(message, s_length, &length) < 0)
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
    Py_CLEAR(c->slots[slot].la_dec);
    c->slots[slot].dest = (int)destination;
    c->slots[slot].len = (int)length;
    c->slots[slot].mask = 0;
    c->slots[slot].la_node = -1;
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
   in the object interfaces' order. */
static PyObject *
Core_deliver(Core *c, PyObject *arg)
{
    i64 cycle;
    if (check_ready(c) < 0 || parse_cycle(arg, &cycle) < 0)
        return NULL;
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
                return PyErr_Format(PyExc_OverflowError,
                                    "input VC %d overflow: credit protocol violated", g);
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
            if (PyObject_SetAttr(message, s_ejection_cycle, py_cycle) < 0) {
                failed = 1;
                break;
            }
            /* The slot is released before the callback runs, and the
               message kept alive by this frame. */
            c->slots[s].msg = NULL;
            if (ivec_push(&c->slot_free, s) < 0) {
                Py_DECREF(message);
                failed = 1;
                break;
            }
            PyObject *args[3] = {c->stats, message, py_cycle};
            PyObject *done = PyObject_VectorcallMethod(
                s_record_delivered, args, 3, NULL);
            Py_DECREF(message);
            if (done == NULL) {
                failed = 1;
                break;
            }
            Py_DECREF(done);
        }
        lane->n = 0;
        Py_XDECREF(py_cycle);
        if (failed)
            return NULL;
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
                    return NULL;
                }
            }
        }
        lane->n = 0;
    }
    Py_RETURN_NONE;
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

/* Attempt to allocate an output virtual channel for the routed header of
   input channel ``g`` (Router._try_allocate): the selector is consulted
   only when at least two candidate ports have a free adaptive-class VC,
   so failed attempts draw no RNG and mutate no state.  Returns 1 on
   success, 0 when blocked, -1 on error. */
static int
try_allocate(Core *c, int node, int g, int local, int slot)
{
    PyObject *decision;
    if (c->lookahead && c->slots[slot].la_node == node && c->slots[slot].la_dec != NULL) {
        decision = c->slots[slot].la_dec;
        Py_INCREF(decision);
    }
    else {
        decision = call_decide(c, node, c->slots[slot].dest);
        if (decision == NULL)
            return -1;
    }
    int vcs = c->vcs, pbase = node * c->radix;
    int selected_port = -1, selected_vc = -1, result = -1;
    PyObject *ports = PyObject_GetAttr(decision, s_adaptive_ports);
    PyObject *fast = ports ? PySequence_Fast(ports, "adaptive_ports must be a sequence") : NULL;
    Py_XDECREF(ports);
    if (fast == NULL)
        goto done;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    /* Candidates as (port, first free VC, free count) triples. */
    if (ivec_reserve(&c->cand, 3 * n) < 0) {
        Py_DECREF(fast);
        goto done;
    }
    int *cand = c->cand.v, ncand = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        int port = decision_port(c, PySequence_Fast_GET_ITEM(fast, i));
        if (port < 0) {
            Py_DECREF(fast);
            goto done;
        }
        if (!c->out_connected[pbase + port])
            continue;
        int count, first = free_vcs(c, (pbase + port) * vcs, c->adaptive_vcs, c->n_adaptive,
                                    &count);
        if (count) {
            cand[3 * ncand] = port;
            cand[3 * ncand + 1] = first;
            cand[3 * ncand + 2] = count;
            ncand++;
        }
    }
    Py_DECREF(fast);

    if (ncand == 1) {
        selected_port = cand[0];
        selected_vc = cand[1];
    }
    else if (ncand > 1) {
        PyObject *statuses = PyList_New(ncand);
        if (statuses == NULL)
            goto done;
        for (int i = 0; i < ncand; i++) {
            PyObject *status = port_status(c, pbase, cand[3 * i], cand[3 * i + 2]);
            if (status == NULL) {
                Py_DECREF(statuses);
                goto done;
            }
            PyList_SET_ITEM(statuses, i, status);
        }
        PyObject *args[2] = {PyList_GET_ITEM(c->selectors, node), statuses};
        PyObject *chosen = PyObject_VectorcallMethod(s_select, args, 2, NULL);
        Py_DECREF(statuses);
        if (chosen == NULL)
            goto done;
        /* -1 (not an int, or out of range) matches no candidate. */
        long port = PyLong_Check(chosen) ? PyLong_AsLong(chosen) : -1;
        if (port == -1)
            PyErr_Clear();
        int index = -1;
        for (int i = 0; i < ncand && index < 0; i++)
            if (cand[3 * i] == port)
                index = i;
        if (index < 0) {
            PyObject *names = PyList_New(ncand);
            if (names != NULL) {
                for (int i = 0; i < ncand; i++)
                    PyList_SET_ITEM(names, i, PyLong_FromLong(cand[3 * i]));
                if (PyList_Sort(names) == 0)
                    PyErr_Format(PyExc_AssertionError,
                                 "path selector chose port %R outside the candidate set %R",
                                 chosen, names);
                Py_DECREF(names);
            }
            Py_DECREF(chosen);
            goto done;
        }
        Py_DECREF(chosen);
        selected_port = cand[3 * index];
        selected_vc = cand[3 * index + 1];
    }
    else if (c->n_escape) {
        PyObject *value = PyObject_GetAttr(decision, s_escape_port);
        if (value == NULL)
            goto done;
        int escape_port = decision_port(c, value);
        Py_DECREF(value);
        if (escape_port < 0)
            goto done;
        if (c->out_connected[pbase + escape_port]) {
            int cls = (c->slots[slot].mask >> c->port_dimension[escape_port]) & 1;
            int pool = escape_port * 2 + cls, count;
            int first = free_vcs(c, (pbase + escape_port) * vcs, c->pools + pool * vcs,
                                 c->pool_n[pool], &count);
            if (count) {
                selected_port = escape_port;
                selected_vc = first;
            }
        }
    }

    if (selected_port < 0) {
        result = 0;
        goto done;
    }
    int go = (pbase + selected_port) * vcs + selected_vc;
    if (c->out_owner[go] >= 0) {
        PyErr_Format(PyExc_ValueError, "output VC %d already owned by %d", go, c->out_owner[go]);
        goto done;
    }
    c->out_owner[go] = g;
    c->in_out_g[g] = go;
    c->in_out_port[g] = selected_port;
    c->in_state[g] = ACTIVE;
    i64 row = (i64)node * c->per_node;
    sorted_remove(c->rm + row, &c->rm_n[node], local);
    sorted_insert(c->am + row, &c->am_n[node], local);
    c->headers_routed[node]++;
    result = 1;
done:
    Py_DECREF(decision);
    return result;
}

/* -- the router pass --------------------------------------------------------- */

/* Call selectors[node].record_use(port, cycle). */
static int
record_use(Core *c, int node, int port, PyObject *py_cycle)
{
    PyObject *py_port = small_int(c, port);
    if (py_port == NULL)
        return -1;
    PyObject *args[3] = {PyList_GET_ITEM(c->selectors, node), py_port, py_cycle};
    PyObject *done = PyObject_VectorcallMethod(s_record_use, args, 3, NULL);
    Py_DECREF(py_port);
    if (done == NULL)
        return -1;
    Py_DECREF(done);
    return 0;
}

/* Add one to message.hops. */
static int
count_hop(PyObject *message)
{
    long hops;
    if (int_attr(message, s_hops, &hops) < 0)
        return -1;
    PyObject *value = PyLong_FromLong(hops + 1);
    if (value == NULL)
        return -1;
    int status = PyObject_SetAttr(message, s_hops, value);
    Py_DECREF(value);
    return status;
}

/* One allocation/forwarding pass over the busy-router worklist: VC
   allocation over each router's ROUTING channels, switch stage 1 (one
   sendable VC nominated per input port), switch stage 2 (one nominating
   input granted per output) and crossbar forwarding of the grants. */
static int
evaluate_routers(Core *c, i64 cycle, PyObject **py_cycle)
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
            if (c->selector_records) {
                if (*py_cycle == NULL && (*py_cycle = PyLong_FromLongLong(cycle)) == NULL)
                    return -1;
                if (record_use(c, node, out_port, *py_cycle) < 0)
                    return -1;
            }
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
                if (count_hop(c->slots[s].msg) < 0)
                    return -1;
                c->slots[s].mask |= c->dateline_bits[pidx];
                if (c->lookahead && out_port != 0) {
                    int next_node = c->port_neighbor[pidx];
                    PyObject *decision = call_decide(c, next_node, c->slots[s].dest);
                    if (decision == NULL)
                        return -1;
                    c->slots[s].la_node = next_node;
                    Py_XSETREF(c->slots[s].la_dec, decision);
                }
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
        c->flits_forwarded[node] += grants;
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
   when they arrive).  -1 with an exception set on error. */
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
    PyObject *source = PyList_GET_ITEM(c->sources, node);
    if (source == Py_None)
        return NEVER;
    PyObject *next_due = PyObject_GetAttr(source, s_next_due_cycle);
    if (next_due == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return -1;
        /* Sources without a due-cycle forecast are polled every cycle. */
        PyErr_Clear();
        return cycle;
    }
    PyObject *due = PyObject_CallNoArgs(next_due);
    Py_DECREF(next_due);
    if (due == NULL)
        return -1;
    if (due == Py_None) {
        Py_DECREF(due);
        return NEVER;
    }
    i64 value = PyLong_AsLongLong(due);
    Py_DECREF(due);
    if (value == -1 && PyErr_Occurred())
        return -1;
    return value > cycle ? value : cycle;
}

/* One interface's evaluate: generate, start injections, send one flit;
   then recompute its wake cycle. */
static int
evaluate_interface(Core *c, int node, i64 cycle, PyObject *py_cycle)
{
    PyObject *source = PyList_GET_ITEM(c->sources, node);
    Queue *queue = &c->ni_queue[node];
    if (source != Py_None) {
        PyObject *args[2] = {source, py_cycle};
        PyObject *due = PyObject_VectorcallMethod(s_messages_due, args, 2, NULL);
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
        if (PyErr_Occurred())
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
        if (c->lookahead) {
            PyObject *decision = call_decide(c, node, c->slots[slot].dest);
            if (decision == NULL)
                return -1;
            c->slots[slot].la_node = node;
            Py_XSETREF(c->slots[slot].la_dec, decision);
        }
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
            PyObject *message = c->slots[slot].msg;
            flit |= HEAD;
            if (PyObject_SetAttr(message, s_injection_cycle, py_cycle) < 0)
                return -1;
            PyObject *args[3] = {c->stats, message, py_cycle};
            PyObject *done = PyObject_VectorcallMethod(s_record_injected, args, 3, NULL);
            if (done == NULL)
                return -1;
            Py_DECREF(done);
        }
        IntVec *lane = &c->flit_lanes[(cycle + c->link_delay) % c->wheel];
        if (ivec_push2(lane, flit, node * c->per_node + vc) < 0)
            return -1;
        c->flit_pending++;
        c->ni_next_slot[node] = (vc + 1) % vcs;
        break;
    }

    i64 wake = interface_next_event(c, node, cycle + 1);
    if (wake < 0)
        return -1;
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
static PyObject *
Core_evaluate(Core *c, PyObject *arg)
{
    i64 cycle;
    if (check_ready(c) < 0 || parse_cycle(arg, &cycle) < 0)
        return NULL;
    PyObject *py_cycle = NULL;
    if (c->busy_n && evaluate_routers(c, cycle, &py_cycle) < 0)
        goto fail;
    if (c->soon.n || (c->heap_n && c->heap[0].wake <= cycle)) {
        /* Swap the next-pass list out: the pass re-arms into an empty one. */
        IntVec due = c->soon;
        c->soon = c->due;
        c->soon.n = 0;
        c->due = due;
        while (c->heap_n && c->heap[0].wake <= cycle) {
            HeapEntry entry = heap_pop(c);
            if (c->ni_wake[entry.node] == entry.wake && ivec_push(&c->due, entry.node) < 0)
                goto fail;
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
        if (py_cycle == NULL && (py_cycle = PyLong_FromLongLong(cycle)) == NULL)
            goto fail;
        for (Py_ssize_t i = 0; i < count; i++)
            if (evaluate_interface(c, c->due.v[i], cycle, py_cycle) < 0)
                goto fail;
    }
    Py_XDECREF(py_cycle);
    Py_RETURN_NONE;
fail:
    Py_XDECREF(py_cycle);
    return NULL;
}

/* -- quiescence ---------------------------------------------------------------- */

/* Earliest cycle (>= ``cycle``) at which anything has work, or None: the
   busy routers' sendable/ready conditions, the interfaces re-armed for
   this cycle or the earliest live heap wake, and the earliest pending
   arrival of the four wheels. */
static PyObject *
Core_next_event_cycle(Core *c, PyObject *arg)
{
    i64 cycle;
    if (check_ready(c) < 0 || parse_cycle(arg, &cycle) < 0)
        return NULL;
    if (c->soon.n)
        return PyLong_FromLongLong(cycle);
    i64 upcoming = NEVER;
    for (int bi = 0; bi < c->busy_n; bi++) {
        int node = c->busy[bi], base = node * c->per_node;
        const int *active = c->am + (i64)base, *routing = c->rm + (i64)base;
        for (int i = 0; i < c->am_n[node]; i++) {
            int g = base + active[i];
            if (c->buf_len[g] && c->out_credits[c->in_out_g[g]] > 0)
                return PyLong_FromLongLong(cycle);
        }
        for (int i = 0; i < c->rm_n[node]; i++) {
            i64 ready = c->in_ready[base + routing[i]];
            if (ready >= cycle) {
                if (ready < upcoming)
                    upcoming = ready;
            }
            else if (c->released[node]) {
                return PyLong_FromLongLong(cycle);
            }
        }
    }
    while (c->heap_n && c->ni_wake[c->heap[0].node] != c->heap[0].wake)
        heap_pop(c);
    if (c->heap_n) {
        i64 wake = c->heap[0].wake;
        if (wake <= cycle)
            return PyLong_FromLongLong(cycle);
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

static int
check_node(Core *c, long node)
{
    if (node < 0 || node >= c->num_nodes) {
        PyErr_Format(PyExc_IndexError, "node %ld out of range", node);
        return -1;
    }
    return 0;
}

/* Lower one interface's wake to ``cycle`` (closed-loop sources queue work
   at a node from outside its own evaluation). */
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
    if (cycle < c->ni_wake[node]) {
        c->ni_wake[node] = cycle;
        if (heap_push(c, cycle, (int)node) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

/* -- introspection ---------------------------------------------------------------- */

static PyObject *
Core_is_idle(Core *c, PyObject *Py_UNUSED(ignored))
{
    if (check_ready(c) < 0)
        return NULL;
    if (c->flit_pending || c->eject_pending)
        Py_RETURN_FALSE;
    for (int node = 0; node < c->num_nodes; node++)
        if (c->ni_queue[node].n)
            Py_RETURN_FALSE;
    for (int s = 0; s < c->num_slots; s++)
        if (c->ni_left[s])
            Py_RETURN_FALSE;
    for (int g = 0; g < c->num_channels; g++)
        if (c->buf_len[g] || c->in_state[g] != IDLE)
            Py_RETURN_FALSE;
    Py_RETURN_TRUE;
}

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
        || put(d, "flits_forwarded", i64_list(c->flits_forwarded, nn, 0)) < 0
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
        || put(d, "slot_la_node", slot_field(c, offsetof(Slot, la_node))) < 0
        || put(d, "slot_free", int_list(c->slot_free.v, c->slot_free.n)) < 0
        || put(d, "ni_credits", int_list(c->ni_credits, c->num_slots)) < 0
        || put(d, "ni_left", int_list(c->ni_left, c->num_slots)) < 0
        || put(d, "ni_slot", int_list(c->ni_slot, c->num_slots)) < 0
        || put(d, "ni_next_slot", int_list(c->ni_next_slot, nn)) < 0
        || put(d, "ni_queue", ni_queue) < 0
        || put(d, "ni_wake", i64_list(c->ni_wake, nn, 1)) < 0
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

/* Per-node crossbar or header counters as a list. */
static PyObject *
Core_counters(Core *c, PyObject *arg)
{
    if (check_ready(c) < 0)
        return NULL;
    int headers = PyObject_IsTrue(arg);
    if (headers < 0)
        return NULL;
    return i64_list(headers ? c->headers_routed : c->flits_forwarded, c->num_nodes, 0);
}

static PyObject *
Core_channel(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("channel", nargs, 3) < 0 || check_ready(c) < 0)
        return NULL;
    long node = PyLong_AsLong(args[0]), port = PyLong_AsLong(args[1]),
         vc = PyLong_AsLong(args[2]);
    if (PyErr_Occurred() || check_node(c, node) < 0)
        return NULL;
    if (port < 0 || port >= c->radix || vc < 0 || vc >= c->vcs) {
        PyErr_Format(PyExc_IndexError, "port %ld / vc %ld out of range", port, vc);
        return NULL;
    }
    int g = (int)((node * c->radix + port) * c->vcs + vc);
    return Py_BuildValue("(iiii)", c->in_state[g], c->buf_len[g], c->out_credits[g],
                         c->out_owner[g]);
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
        || spec_int(spec, "wheel_size", &c->wheel) < 0
        || spec_int(spec, "selector_records", &c->selector_records) < 0)
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
    ALLOC(flits_forwarded, nn);
    ALLOC(headers_routed, nn);
    ALLOC(ni_credits, c->num_slots);
    ALLOC(ni_left, c->num_slots);
    ALLOC(ni_slot, c->num_slots);
    ALLOC(ni_next_slot, nn);
    ALLOC(ni_queue, nn);
    ALLOC(ni_wake, nn);
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
    PyObject *escape = PyDict_GetItemString(spec, "escape_vcs");
    if (adaptive == NULL || escape == NULL) {
        PyErr_SetString(PyExc_KeyError, "core spec lacks adaptive_vcs or escape_vcs");
        return -1;
    }
    c->n_escape = (int)PyObject_Length(escape);
    if (c->n_escape < 0
        || spec_ints(adaptive, "adaptive_vcs", c->vcs, c->adaptive_vcs, &c->n_adaptive) < 0
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
    /* Every interface starts active at cycle 0, like kernel registration. */
    for (int node = 0; node < nn; node++)
        if (heap_push(c, 0, node) < 0)
            return -1;

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
    for (Py_ssize_t s = 0; s < c->slot_n; s++) {
        Py_VISIT(c->slots[s].msg);
        Py_VISIT(c->slots[s].la_dec);
    }
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
    for (Py_ssize_t s = 0; s < c->slot_n; s++) {
        Py_CLEAR(c->slots[s].msg);
        Py_CLEAR(c->slots[s].la_dec);
    }
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
        c->released, c->flits_forwarded, c->headers_routed, c->slots, c->slot_free.v, c->ni_credits, c->ni_left, c->ni_slot, c->ni_next_slot, c->ni_queue,
        c->ni_wake, c->heap, c->soon.v, c->due.v, c->due_mark, c->flit_lanes, c->credit_lanes,
        c->eject_lanes, c->ni_credit_lanes, c->snap, c->cand.v, c->ints,
    };
    for (size_t i = 0; i < sizeof(arrays) / sizeof(arrays[0]); i++)
        PyMem_Free(arrays[i]);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static PyMethodDef Core_methods[] = {
    {"deliver", (PyCFunction)Core_deliver, METH_O, "Drain the four arrival wheels for a cycle."},
    {"evaluate", (PyCFunction)Core_evaluate, METH_O,
     "Run the busy routers' pass, then the due interfaces' injection."},
    {"next_event_cycle", (PyCFunction)Core_next_event_cycle, METH_O,
     "Earliest cycle (>= cycle) at which anything has work, or None."},
    {"wake_interface", (PyCFunction)(void (*)(void))Core_wake_interface, METH_FASTCALL,
     "Lower one interface's wake cycle: wake_interface(node, cycle)."},
    {"is_idle", (PyCFunction)Core_is_idle, METH_NOARGS,
     "True when no flit is buffered, queued or in flight anywhere."},
    {"message_counts", (PyCFunction)Core_message_counts, METH_NOARGS,
     "(live message slots, messages queued at interfaces)."},
    {"clear_slot", (PyCFunction)Core_clear_slot, METH_O,
     "Drop a live slot's message without delivering it (conservation tests)."},
    {"state", (PyCFunction)Core_state, METH_NOARGS,
     "Every state array as plain Python lists, in a dict."},
    {"counters", (PyCFunction)Core_counters, METH_O,
     "Per-node headers_routed (True) or flits_forwarded (False) counters."},
    {"channel", (PyCFunction)(void (*)(void))Core_channel, METH_FASTCALL,
     "(input state, buffered flits, output credits, output owner) of one channel."},
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
};

#define INTERN(var, text)                                  \
    if ((var = PyUnicode_InternFromString(text)) == NULL)   \
    return NULL

PyMODINIT_FUNC
PyInit__flatcore(void)
{
    INTERN(s_select, "select");
    INTERN(s_record_use, "record_use");
    INTERN(s_messages_due, "messages_due");
    INTERN(s_next_due_cycle, "next_due_cycle");
    INTERN(s_record_created, "record_created");
    INTERN(s_record_injected, "record_injected");
    INTERN(s_record_delivered, "record_delivered");
    INTERN(s_hops, "hops");
    INTERN(s_injection_cycle, "injection_cycle");
    INTERN(s_ejection_cycle, "ejection_cycle");
    INTERN(s_destination, "destination");
    INTERN(s_length, "length");
    INTERN(s_adaptive_ports, "adaptive_ports");
    INTERN(s_escape_port, "escape_port");
    if (PyType_Ready(&CoreType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&flatcore_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&CoreType);
    if (PyModule_AddObject(module, "Core", (PyObject *)&CoreType) < 0) {
        Py_DECREF(&CoreType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
