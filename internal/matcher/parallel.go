package matcher

import (
	"sync"

	"bluedove/internal/core"
	"bluedove/internal/index"
)

// matchHit is one (message, subscription) match produced by a match job,
// carrying the delivery address read under the dimension lock.
type matchHit struct {
	msg  int32 // index into the batch's live-message slice
	sub  *core.Subscription
	addr string
}

// matchJob is the stab+verify work for one contiguous chunk of a batch's
// messages against the dimension's single index. Jobs live in the pooled
// match scratch and are reused, so steady-state matching allocates nothing:
// the hit list, the Match destination and the stabbing candidate buffer all
// retain their capacity. Hits come out in message order, so walking the
// jobs in chunk order yields the batch's hits in message order.
type matchJob struct {
	ds      *dimSet
	msgs    []*core.Message
	base    int // index of msgs[0] in the batch's live-message slice
	hits    []matchHit
	dst     []*core.Subscription
	cands   []*core.Subscription
	scanned int
	wg      *sync.WaitGroup
}

// run matches the job's chunk under one read-lock acquisition. Reads run
// concurrently with the other chunks' jobs; index mutations wait for them.
func (j *matchJob) run() {
	ds := j.ds
	j.hits = j.hits[:0]
	j.scanned = 0
	ds.mu.RLock()
	for i, msg := range j.msgs {
		var n int
		j.dst, j.cands, n = index.Match(ds.idx, msg, j.dst[:0], j.cands)
		j.scanned += n
		for _, s := range j.dst {
			j.hits = append(j.hits, matchHit{msg: int32(j.base + i), sub: s, addr: ds.addrs[s.ID]})
		}
	}
	ds.mu.RUnlock()
	j.wg.Done()
}

// reset drops the job's object references so pooling does not pin messages,
// subscriptions or addresses past their useful life.
func (j *matchJob) reset() {
	j.ds = nil
	j.msgs = nil
	j.wg = nil
	clear(j.hits)
	j.hits = j.hits[:0]
	clear(j.dst)
	j.dst = j.dst[:0]
	clear(j.cands)
	j.cands = j.cands[:0]
}

// matchPool is the matcher's shared worker pool for splitting a batch's
// stab+verify work: submitted jobs are pointers into pooled scratch, so
// dispatch is allocation-free. One pool serves every dimension stage.
type matchPool struct {
	jobs chan *matchJob
	wg   sync.WaitGroup
}

// newMatchPool starts a pool with the given number of workers.
func newMatchPool(workers, queue int) *matchPool {
	p := &matchPool{jobs: make(chan *matchJob, queue)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

func (p *matchPool) work() {
	defer p.wg.Done()
	for j := range p.jobs {
		j.run()
	}
}

// submit hands one match job to the pool.
func (p *matchPool) submit(j *matchJob) { p.jobs <- j }

// stop drains and terminates the workers.
func (p *matchPool) stop() {
	close(p.jobs)
	p.wg.Wait()
}
