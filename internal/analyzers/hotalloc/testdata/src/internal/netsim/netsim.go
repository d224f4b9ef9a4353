// Package netsim is a stand-in for mobicache/internal/netsim: every
// admitted message runs through Send, so a per-message request
// or closure there is flagged even without a //hot annotation.
package netsim

type request struct {
	bits   float64
	onDone func()
}

type Channel struct {
	queue []*request
}

// Send is in the known hot set: no annotation, still checked.
func (c *Channel) Send(bits float64, onDelivered func()) bool {
	r := &request{bits: bits} // want `composite literal may heap-allocate`
	r.onDone = func() {       // want `closure creation allocates`
		onDelivered()
	}
	c.queue = append(c.queue, r) // want `append may grow its backing array`
	return true
}

// QueueLen is not in the known set and not annotated: free to allocate.
func (c *Channel) QueueLen() int {
	out := make([]*request, len(c.queue))
	return copy(out, c.queue)
}
