package dbi

// The ahead-of-execution translation pipeline: a bounded worker pool that
// walks the image's statically reachable superblocks — breadth-first from
// the entry point and every function symbol — and fills the shared store
// (decode -> optimize -> instrument -> compile) on spare cores before the
// guest gets there. The analog of the parallel discovery/analysis phase in
// "Parallel Binary Code Analysis": block discovery parallelizes over the
// frontier because translation is per-block and deterministic.
//
// The pipeline is strictly an accelerator. It publishes through the same
// sharedPut path as a running core, so a unit is bit-identical whether the
// guest or the pipeline translated it first (first writer wins in the
// store); blocks it cannot discover (computed branch targets outside any
// symbol) fall back to on-demand translation; and any per-block failure is
// swallowed — the worst case is a block translated twice.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/guest"
	"repro/internal/tstore"
	"repro/internal/vex"
	"repro/internal/vm"
)

// Pretranslation is the handle on an asynchronous pipeline run.
type Pretranslation struct {
	done   chan struct{}
	blocks atomic.Uint64
}

// Wait blocks until the pipeline drains and returns the number of blocks
// it processed.
func (p *Pretranslation) Wait() int {
	<-p.done
	return int(p.blocks.Load())
}

// PretranslateAsync starts the pipeline in the background and returns
// immediately; the guest can start executing against the filling store.
// workers <= 0 uses GOMAXPROCS. newTool must return a fresh tool instance
// per call (each worker instruments with its own); pass a func returning
// nil for uninstrumented stores.
func PretranslateAsync(st *tstore.Store, im *guest.Image, workers int, newTool func() Tool) *Pretranslation {
	p := &Pretranslation{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.run(st, im, workers, newTool)
	}()
	return p
}

// Pretranslate runs the pipeline synchronously and returns the number of
// blocks processed.
func Pretranslate(st *tstore.Store, im *guest.Image, workers int, newTool func() Tool) int {
	return PretranslateAsync(st, im, workers, newTool).Wait()
}

func (p *Pretranslation) run(st *tstore.Store, im *guest.Image, workers int, newTool func() Tool) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	key := st.Key()
	delivery, _ := ParseDelivery(key.Delivery)
	wantCode := key.Engine == EngineCompiled

	var (
		mu      sync.Mutex
		queue   []uint64
		seen    = make(map[uint64]bool)
		pending int // queued + in-flight addresses
	)
	cond := sync.NewCond(&mu)
	push := func(addr uint64) {
		if !seen[addr] {
			seen[addr] = true
			queue = append(queue, addr)
			pending++
			cond.Signal()
		}
	}

	mu.Lock()
	push(im.Entry)
	for i := range im.Symbols {
		s := &im.Symbols[i]
		if s.Kind == guest.SymFunc && s.Addr >= guest.TextBase &&
			s.Addr < im.TextEnd() && s.Addr%guest.InstrBytes == 0 {
			push(s.Addr)
		}
	}
	mu.Unlock()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A throwaway instrument-only core: it shares the store but
			// owns its caches and its tool instance, so nothing here
			// races the running guest's core.
			c := &Core{
				M:              &vm.Machine{Image: im},
				cache:          make(map[uint64]*vex.SuperBlock),
				ccache:         make(map[uint64]*centry),
				ExtendBudget:   key.Extend,
				Delivery:       delivery,
				Shared:         st,
				pretranslating: true,
			}
			c.setTool(newTool())
			for {
				mu.Lock()
				for len(queue) == 0 && pending > 0 {
					cond.Wait()
				}
				if len(queue) == 0 {
					// pending == 0: the frontier is exhausted.
					mu.Unlock()
					cond.Broadcast()
					return
				}
				addr := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				mu.Unlock()

				succs := p.process(c, st, addr, wantCode, im.TextEnd())

				mu.Lock()
				for _, s := range succs {
					push(s)
				}
				pending--
				if pending == 0 {
					cond.Broadcast()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// process ensures the block at addr is in the store (with a compiled form
// when the key's engine wants one) and returns its static successors. Any
// failure — undecodable address, instrumentation panic — drops the block
// silently: the running guest translates it on demand instead.
func (p *Pretranslation) process(c *Core, st *tstore.Store, addr uint64, wantCode bool, textEnd uint64) (succs []uint64) {
	defer func() {
		if recover() != nil {
			succs = nil
		}
	}()
	if u := st.Get(addr); u != nil && (!wantCode || u.Code != nil) {
		p.blocks.Add(1)
		return blockSuccessors(u.SB, textEnd)
	}
	sb, err := c.translate(addr, 0)
	if err != nil {
		return nil
	}
	if wantCode {
		if code, err := vex.Compile(sb); err == nil {
			st.PutCode(addr, code)
		}
	}
	p.blocks.Add(1)
	return blockSuccessors(sb, textEnd)
}

// blockSuccessors extracts the statically known control-flow successors of
// a superblock: conditional-exit targets, constant fall-through/call/host-
// call/client-request edges, and the return site of a direct call. Return
// instructions contribute nothing — their targets are exactly the call
// return sites discovered here.
func blockSuccessors(sb *vex.SuperBlock, textEnd uint64) []uint64 {
	var out []uint64
	add := func(a uint64) {
		if a >= guest.TextBase && a < textEnd && a%guest.InstrBytes == 0 {
			out = append(out, a)
		}
	}
	last := sb.GuestAddr
	for i := range sb.Stmts {
		s := &sb.Stmts[i]
		switch s.Kind {
		case vex.SIMark:
			last = s.Addr
		case vex.SExit:
			add(s.Target)
		}
	}
	switch sb.NextJK {
	case vex.JKBoring, vex.JKHostCall, vex.JKClientReq:
		if sb.Next.Kind == vex.KindConst {
			add(sb.Next.Const)
		}
	case vex.JKCall:
		if sb.Next.Kind == vex.KindConst {
			add(sb.Next.Const)
		}
		add(last + guest.InstrBytes)
	}
	return out
}
