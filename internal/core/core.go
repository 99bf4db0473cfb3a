// Package core implements Taskgrind — the paper's primary contribution: a
// heavyweight DBI tool that records every memory access of a parallel
// program into per-segment interval trees (§III-B), builds the segment graph
// of the execution from OMPT events delivered as client requests (§III-A),
// and runs the determinacy-race analysis of Algorithm 1 with the
// false-positive suppressions of §IV: the __kmp ignore-list, allocator
// overloading (free as a no-op), TLS (TCB/DTV) recording, and stack-frame
// registration.
package core

import (
	"strings"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/itree"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/seggraph"
	"repro/internal/vex"
	"repro/internal/vm"
)

// Options configures Taskgrind.
type Options struct {
	// IgnoreList disables instrumentation for symbols with any of these
	// prefixes (§IV-A). Default: ["__kmp"].
	IgnoreList []string
	// InstrumentList, when non-empty, restricts instrumentation to symbols
	// with these prefixes.
	InstrumentList []string
	// NoFree redirects free to a no-op so heap addresses are never
	// recycled (§IV-B). Default true.
	NoFree bool
	// TLSSuppression enables the TCB/DTV same-thread filter (§IV-C).
	// Default true.
	TLSSuppression bool
	// StackSuppression enables the registered-frame filter (§IV-D).
	// Default true.
	StackSuppression bool
	// AssumeDeferrable treats undeferred tasks as deferred for ordering
	// (the §V-B annotation); also toggled by the CRAssumeDeferrable
	// client request.
	AssumeDeferrable bool
	// MaxReports caps how many reports keep full details (the count is
	// always exact). Default 1024.
	MaxReports int

	// --- capability deltas used by the baseline tool simulators ---

	// NoUndeferredOrdering makes the tool treat undeferred tasks as
	// ordinary deferred tasks (TaskSanitizer/ROMP behaviour: FP on
	// DRB122-taskundeferred).
	NoUndeferredOrdering bool
	// NoTaskgroupOrdering drops the taskgroup-end edges (TaskSanitizer:
	// FP on DRB107-taskgroup).
	NoTaskgroupOrdering bool
	// IgnoreMutexinoutsetDeps drops mutexinoutset dependence edges
	// (ROMP: FP on DRB135).
	IgnoreMutexinoutsetDeps bool
	// GlobalDepNamespace re-matches raw dependences across *all* tasks
	// instead of siblings only — the mis-modelling that makes
	// TaskSanitizer miss non-sibling-dependence races (FN on DRB173/175).
	GlobalDepNamespace bool
	// IgnorePoolRegion drops accesses to the runtime's internal
	// allocation pool: compile-time-instrumented tools never see
	// kmp_task_t internals. Taskgrind (binary instrumentation) does —
	// the §IV-B fast-allocate limitation is uniquely its problem.
	IgnorePoolRegion bool
	// NoIfZeroOrdering keeps if(0)/final undeferred tasks unordered while
	// still ordering team-serialized tasks (ROMP: its runtime hooks see
	// explicit undeferred dispatch but not the serialized path).
	NoIfZeroOrdering bool
	// IgnoreDeferrableAnnotation makes the tool ignore the Taskgrind-
	// specific CRAssumeDeferrable client request (all baselines do).
	IgnoreDeferrableAnnotation bool
	// StackSuppressWindow bounds the §IV-D frame suppression to addresses
	// within this many bytes below the registered frame (0 = unlimited).
	// TaskSanitizer tracks only the task's immediate frame, so deep
	// callee locals escape its suppression (TMB 1003/1005 FPs).
	StackSuppressWindow uint64
	// MutexOrders makes critical sections order segments in their
	// acquisition order. TaskSanitizer and ROMP support mutexes;
	// Taskgrind deliberately does not (paper §VI) — mutual exclusion
	// does not remove determinacy.
	MutexOrders bool
	// CompileTime runs the tool as compiled-in checks on the direct
	// engine instead of heavyweight IR instrumentation — the execution
	// model of Archer/TaskSanitizer/ROMP, and the reason they are an
	// order of magnitude faster than Taskgrind in Table II.
	CompileTime bool
	// FlatShadow models a per-access shadow (no interval merging): the
	// footprint accounting charges every recorded access individually,
	// the way ROMP's shadow memory grows (§V-B: 75 GB at -s 64 where
	// Taskgrind's interval trees stay compact). Only the accounting is
	// flat — the analysis still uses the trees.
	FlatShadow bool
	// NoFreePool extends the §IV-B free-as-no-op treatment to the
	// runtime's internal fast allocator — the paper's stated future work
	// ("we need to support libraries built-in memory allocators").
	// Off by default to preserve the published tool behaviour (the
	// pool-recycling false positives of Table I); the harness honours it
	// by disabling recycling in the runtime pool, the effect the proposed
	// __kmp_fast_allocate function replacement would have.
	NoFreePool bool
	// StackLifetimeSuppression is this reproduction's fix for the
	// false-positive class the paper leaves open ("Taskgrind detects
	// conflicting sibling tasks on a memory location in their parent
	// segment stack frame"): a stack address is a *different object* in
	// two same-thread segments if the stack popped above it in between —
	// concurrent subtrees scheduled sequentially reuse frame memory
	// without sharing objects. Sound: a live object's address can never
	// be above an intervening stack-pointer high-water mark.
	StackLifetimeSuppression bool
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		IgnoreList:               []string{"__kmp"},
		NoFree:                   true,
		TLSSuppression:           true,
		StackSuppression:         true,
		StackLifetimeSuppression: true,
		MaxReports:               1024,
	}
}

// NaiveOptions disables every suppression — the §IV motivation configuration
// that reports ~400k races on LULESH.
func NaiveOptions() Options {
	return Options{MaxReports: 1024}
}

// Segment is one node of the segment graph with its access records.
type Segment struct {
	Node   seggraph.NodeID
	Thread int
	TaskID uint64
	// Label is the construct source location used in reports.
	Label string
	// Frame is the frame pointer registered at segment start (§IV-D).
	Frame uint64
	// EventSP is the raw stack pointer at segment creation, used by the
	// stack-lifetime suppression.
	EventSP uint64
	// TLSGen is the thread's DTV generation at segment start (§IV-C).
	TLSGen uint64
	// Reads and Writes are the access interval trees (§III-B).
	Reads, Writes *itree.Tree
}

// taskInfo tracks a task between its OMPT events.
type taskInfo struct {
	id         uint64
	parent     uint64
	flags      uint64
	fnAddr     uint64
	seq        int
	createSeg  *Segment
	lastSeg    *Segment
	firstSeg   *Segment
	depPreds   []uint64
	children   []uint64
	deferrable bool
	completed  bool
	// groupStarts stacks taskgroup open points (task-creation sequence
	// numbers) for descendant collection at group end.
	groupStarts []int
	// waitDepPreds accumulates the predecessors of an in-flight
	// `taskwait depend(...)`.
	waitDepPreds []uint64
}

// regionInfo tracks a parallel region.
type regionInfo struct {
	forkSeg  *Segment
	lasts    []*Segment
	arrivals map[uint64][]*Segment // barrier gen -> arrival segments
	fnAddr   uint64
}

// threadState is Taskgrind's per-thread state (vm.Thread.Tool).
type threadState struct {
	cur   *Segment
	stack []*Segment
}

// globalSlot backs the GlobalDepNamespace mis-modelling option.
type globalSlot struct {
	writers []uint64
	readers []uint64
}

// Stats counts analysis work.
type Stats struct {
	AccessesRecorded uint64
	SegmentsCreated  int
	PairsChecked     uint64
	ConflictPairs    int
	SuppressedTLS    uint64
	SuppressedStack  uint64
	ReportsTotal     int
	// InstrumentedLoads/Stores count the access hooks inserted at
	// instrumentation time (per cached block, not per execution).
	InstrumentedLoads  uint64
	InstrumentedStores uint64
}

// Taskgrind is the tool plugin.
type Taskgrind struct {
	Opt   Options
	Stats Stats
	// Variant is the registry name this instance was configured under
	// ("taskgrind-naive", "tasksan", ...). Differently-configured instances
	// instrument differently, so the translation store must not key them all
	// under the shared Name(); see ToolID.
	Variant string

	c     *dbi.Core
	graph *seggraph.Graph
	segs  []*Segment

	tasks       map[uint64]*taskInfo
	taskSeq     int
	regions     map[uint64]*regionInfo
	globalSlots map[uint64]*globalSlot
	critRel     map[uint64]*Segment
	relSeg      map[uint64]*Segment
	believed    map[[2]uint64]bool

	assumeDeferrable bool

	// lifetimes is the per-thread (segment, event SP) index built at Fini
	// for the stack-lifetime suppression.
	lifetimes map[int]*spIndex
	// stackOf maps thread id to its stack bounds.
	stackOf map[int][2]uint64

	// Reports is filled by the Fini analysis pass.
	Reports report.Set
	// RaceCount is the exact number of conflicting segment pairs.
	RaceCount int
}

// New creates a Taskgrind instance.
func New(opt Options) *Taskgrind {
	if opt.MaxReports == 0 {
		opt.MaxReports = 1024
	}
	return &Taskgrind{
		Opt:              opt,
		graph:            seggraph.New(),
		tasks:            make(map[uint64]*taskInfo),
		regions:          make(map[uint64]*regionInfo),
		assumeDeferrable: opt.AssumeDeferrable,
	}
}

// Name implements dbi.Tool.
func (tg *Taskgrind) Name() string { return "taskgrind" }

// ToolID implements dbi.Identifier: the translation-store identity. Every
// option that changes Instrument's output (ignore lists, compile-time
// scoping) lives in the registry configuration, so the registry name is the
// correct cache key — Name() alone would collide taskgrind with
// taskgrind-naive (whose suppressions are off and whose instrumentation
// therefore covers more code).
func (tg *Taskgrind) ToolID() string {
	if tg.Variant != "" {
		return tg.Variant
	}
	return tg.Name()
}

// Attach implements dbi.Attacher: installs the allocator overload and the
// shadow-footprint reporter.
func (tg *Taskgrind) Attach(c *dbi.Core) {
	tg.c = c
	if tg.Opt.NoFree {
		// Valgrind-style function replacement: free becomes a no-op so
		// no heap address is ever recycled (§IV-B). The registry still
		// learns about the free for reporting.
		_, err := c.M.RedirectHost("free", func(m *vm.Machine, t *vm.Thread) vm.HostResult {
			c.RecordFree(t.Regs[guest.R0])
			return vm.HostResult{}
		})
		// A program that never imports free has nothing to redirect.
		_ = err
	}
	c.M.ExtraFootprint = func() uint64 {
		return tg.ShadowFootprint() + c.CacheFootprint()
	}
}

// AccessHooks implements dbi.CompileTimeTool when Opt.CompileTime is set:
// the tool's checks run inline on the direct engine.
func (tg *Taskgrind) AccessHooks(im *guest.Image) (load, store vm.AccessHook, filter []bool) {
	if !tg.Opt.CompileTime {
		return nil, nil, nil
	}
	filter = dbi.SymbolFilter(im, func(sym string) bool { return !tg.symFiltered(sym) })
	load = func(t *vm.Thread, addr uint64, w uint8, pc uint64) {
		tg.record(t, addr, w, false)
	}
	store = func(t *vm.Thread, addr uint64, w uint8, pc uint64) {
		tg.record(t, addr, w, true)
	}
	return load, store, filter
}

// record attributes one access to the thread's current segment.
func (tg *Taskgrind) record(t *vm.Thread, addr uint64, w uint8, write bool) {
	ts, ok := t.Tool.(*threadState)
	if !ok || ts.cur == nil || tg.skipAddr(addr) {
		return
	}
	tg.Stats.AccessesRecorded++
	if write {
		ts.cur.Writes.InsertPoint(addr, w)
	} else {
		ts.cur.Reads.InsertPoint(addr, w)
	}
}

// ShadowFootprint approximates the tool's shadow-structure memory.
func (tg *Taskgrind) ShadowFootprint() uint64 {
	var f uint64
	if tg.Opt.FlatShadow {
		// 24 bytes per recorded access (addr, width, kind, task tag).
		f += tg.Stats.AccessesRecorded * 24
	}
	for _, s := range tg.segs {
		f += s.Reads.Footprint() + s.Writes.Footprint() + 128
	}
	f += uint64(tg.graph.NumNodes()*16 + tg.graph.NumEdges()*8)
	return f
}

// PublishMetrics implements obs.MetricSource: the tool's analysis counters
// under a "tool_" prefix, so the registry snapshot carries everything the
// -v stats print shows.
func (tg *Taskgrind) PublishMetrics(reg *obs.Registry) {
	s := &tg.Stats
	reg.Counter("tool_accesses_recorded_total").Set(s.AccessesRecorded)
	reg.Counter("tool_segments_total").Set(uint64(s.SegmentsCreated))
	reg.Counter("tool_pairs_checked_total").Set(s.PairsChecked)
	reg.Counter("tool_conflict_pairs_total").Set(uint64(s.ConflictPairs))
	reg.Counter("tool_suppressed_tls_total").Set(s.SuppressedTLS)
	reg.Counter("tool_suppressed_stack_total").Set(s.SuppressedStack)
	reg.Counter("tool_reports_total").Set(uint64(s.ReportsTotal))
	reg.Counter("tool_instrumented_loads_total").Set(s.InstrumentedLoads)
	reg.Counter("tool_instrumented_stores_total").Set(s.InstrumentedStores)
	reg.Gauge("tool_shadow_footprint_bytes").Set(float64(tg.ShadowFootprint()))
}

// Graph exposes the segment graph (tests, tooling).
func (tg *Taskgrind) Graph() *seggraph.Graph { return tg.graph }

// Segments exposes the segment list (tests, tooling).
func (tg *Taskgrind) Segments() []*Segment { return tg.segs }

// symFiltered reports whether a block in sym should be skipped.
func (tg *Taskgrind) symFiltered(sym string) bool {
	for _, p := range tg.Opt.IgnoreList {
		if strings.HasPrefix(sym, p) {
			return true
		}
	}
	if len(tg.Opt.InstrumentList) > 0 {
		for _, p := range tg.Opt.InstrumentList {
			if strings.HasPrefix(sym, p) {
				return false
			}
		}
		return true
	}
	return false
}

// Instrument implements dbi.Tool (IR-engine path): routes every load and
// store through the core's access-delivery machinery, which batches the
// records per superblock segment and hands them to FlushAccesses.
func (tg *Taskgrind) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	symName := ""
	if sym := c.M.Image.SymbolFor(sb.GuestAddr); sym != nil {
		symName = sym.Name
	}
	if tg.symFiltered(symName) {
		return sb
	}
	out, loads, stores := c.InstrumentAccesses(sb)
	tg.Stats.InstrumentedLoads += loads
	tg.Stats.InstrumentedStores += stores
	return out
}

// FlushAccesses implements dbi.AccessSink: record a batch of accesses into
// the thread's current segment.
func (tg *Taskgrind) FlushAccesses(t *vm.Thread, batch []dbi.Access) {
	for i := range batch {
		a := &batch[i]
		tg.record(t, a.Addr, a.Wd, a.Store)
	}
}

// skipAddr drops accesses compile-time-instrumented tools never see.
func (tg *Taskgrind) skipAddr(addr uint64) bool {
	return tg.Opt.IgnorePoolRegion &&
		addr >= guest.FastPoolBase && addr < guest.FastPoolLimit
}

// newSegment registers a fresh segment for a thread, capturing the frame
// pointer and DTV generation (§IV-C/D).
func (tg *Taskgrind) newSegment(t *vm.Thread, label string, taskID uint64) *Segment {
	s := &Segment{
		Node:   tg.graph.AddNode(),
		Thread: t.ID,
		TaskID: taskID,
		Label:  label,
		// The registered frame is the frame pointer (the enclosing user
		// frame base), not SP: segment-starting runtime events fire at
		// transient hcall depths, and registering SP would misclassify
		// the caller's own staging slots (dep arrays, spill slots) as
		// shared state.
		Frame:   t.Regs[guest.FP],
		EventSP: t.Regs[guest.SP],
		TLSGen:  t.TLSGen,
		Reads:   itree.New(),
		Writes:  itree.New(),
	}
	tg.segs = append(tg.segs, s)
	tg.Stats.SegmentsCreated++
	return s
}

// locate renders a code address as "file:line" (fallback: symbol name).
func (tg *Taskgrind) locate(addr uint64) string {
	im := tg.c.M.Image
	if file, line := im.LineFor(addr); file != "" {
		return file + ":" + itoa(line)
	}
	if sym := im.SymbolFor(addr); sym != nil {
		return sym.Name
	}
	return "0x" + hex(addr)
}

// ThreadStart implements dbi.Tool: the main thread gets the root segment;
// workers get segments at their first implicit task.
func (tg *Taskgrind) ThreadStart(t *vm.Thread) {
	ts := &threadState{}
	t.Tool = ts
	if t.ID == 0 {
		ts.cur = tg.newSegment(t, "main", 0)
	}
}

// ThreadExit implements dbi.Tool.
func (tg *Taskgrind) ThreadExit(t *vm.Thread) {}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func hex(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0"
	}
	var buf [16]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v&15]
		v >>= 4
	}
	return string(buf[i:])
}
