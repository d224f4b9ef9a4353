package main

import (
	"container/heap"
	"math/rand"
	"time"
)

// refNominal is the host time the reference kernel is defined to take.
// Timed metrics are scaled by refNominal over the kernel's measured time
// beside them, which cancels the slow drift in host speed that a shared
// sandbox shows over minutes (README.md, "Noise").
const refNominal = 0.1

// referenceSeconds runs a fixed discrete-event kernel built only from the
// standard library, so no change to the simulator can move it, and returns
// its host time. Like the simulator it pops an event heap, probes per-client
// maps and appends to small slices; it tracks the host's speed on that kind
// of work, which a plain arithmetic or pointer-chasing loop does not.
func referenceSeconds() float64 {
	start := time.Now()
	src := rand.New(rand.NewSource(1))
	const clients, items, events = 2000, 1000, 100000
	type client struct {
		cache map[int32]float64
		ids   []int32
	}
	cl := make([]client, clients)
	for i := range cl {
		cl[i].cache = make(map[int32]float64, 16)
	}
	q := &refQueue{}
	for i := 0; i < clients; i++ {
		heap.Push(q, refEvent{t: src.ExpFloat64() * 100, who: int32(i)})
	}
	updated := make(map[int32]float64, items)
	hits := 0
	for k := 0; k < events; k++ {
		e := heap.Pop(q).(refEvent)
		c := &cl[e.who]
		c.ids = c.ids[:0]
		for j := 1 + src.Intn(10); j > 0; j-- {
			id := int32(src.Intn(items))
			c.ids = append(c.ids, id)
			if ts, ok := c.cache[id]; ok && updated[id] <= ts {
				hits++
				continue
			}
			c.cache[id] = e.t
			if len(c.cache) > 20 {
				delete(c.cache, c.ids[0])
			}
		}
		if src.Intn(4) == 0 {
			updated[int32(src.Intn(items))] = e.t
		}
		heap.Push(q, refEvent{t: e.t + src.ExpFloat64()*100, who: e.who})
	}
	refSink += hits
	return time.Since(start).Seconds()
}

// refSink keeps the kernel's result live.
var refSink int

type refEvent struct {
	t   float64
	who int32
}

type refQueue []refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].t < q[j].t }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}
