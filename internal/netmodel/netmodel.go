package netmodel

import (
	"math/rand"
	"time"

	"rollrec/internal/ids"
)

// Params is the link cost model, identical for every link in the cluster.
type Params struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) component per frame. FIFO order per
	// link is preserved regardless.
	Jitter time.Duration
	// Bandwidth is the link transmission rate in bytes/second; zero means
	// infinitely fast transmission.
	Bandwidth float64
	// DropRate drops a frame with this probability (0..1). The protocol
	// family assumes reliable channels; this knob exists for the failure-
	// injection tests that verify the assumption is load-bearing.
	DropRate float64
}

// TransmitTime returns the serialization delay of a frame of size bytes.
func (p Params) TransmitTime(size int) time.Duration {
	if p.Bandwidth <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / p.Bandwidth * float64(time.Second))
}

type linkKey struct{ from, to ids.ProcID }

type link struct {
	freeAt      int64 // when the sender's half-link finishes its last frame
	lastDeliver int64 // FIFO clamp
}

// Network tracks the state of all links. Not safe for concurrent use; the
// simulator owns it.
type Network struct {
	params Params
	links  map[linkKey]*link
	cut    map[linkKey]bool
	rng    *rand.Rand

	// Counters for tests and experiments.
	Frames  int64
	Bytes   int64
	Dropped int64
}

// New returns a network with the given parameters and randomness source
// (used for jitter and drops).
func New(p Params, rng *rand.Rand) *Network {
	return &Network{
		params: p,
		links:  make(map[linkKey]*link),
		cut:    make(map[linkKey]bool),
		rng:    rng,
	}
}

// Params returns the link cost model.
func (n *Network) Params() Params { return n.params }

// Schedule computes the delivery time for a frame of size bytes sent at
// virtual time now. ok is false when the frame is lost to a partition or a
// random drop.
func (n *Network) Schedule(now int64, from, to ids.ProcID, size int) (deliverAt int64, ok bool) {
	key := linkKey{from, to}
	if n.cut[key] {
		n.Dropped++
		return 0, false
	}
	if n.params.DropRate > 0 && n.rng.Float64() < n.params.DropRate {
		n.Dropped++
		return 0, false
	}
	l := n.links[key]
	if l == nil {
		l = &link{}
		n.links[key] = l
	}
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	l.freeAt = start + int64(n.params.TransmitTime(size))
	at := l.freeAt + int64(n.params.Latency)
	if n.params.Jitter > 0 {
		at += n.rng.Int63n(int64(n.params.Jitter))
	}
	// FIFO per link: never deliver before (or at the same instant as) the
	// previous frame on this link.
	if at <= l.lastDeliver {
		at = l.lastDeliver + 1
	}
	l.lastDeliver = at
	n.Frames++
	n.Bytes += int64(size)
	return at, true
}

// Cut severs the directed link from→to; frames on it are dropped until
// Heal. Use both directions for a symmetric partition.
func (n *Network) Cut(from, to ids.ProcID) { n.cut[linkKey{from, to}] = true }

// Heal restores the directed link from→to.
func (n *Network) Heal(from, to ids.ProcID) { delete(n.cut, linkKey{from, to}) }

// Isolate cuts every link to and from p (used to model a network-dead
// host, distinct from a crashed process).
func (n *Network) Isolate(p ids.ProcID, peers []ids.ProcID) {
	for _, q := range peers {
		if q != p {
			n.Cut(p, q)
			n.Cut(q, p)
		}
	}
}

// Rejoin heals every link to and from p.
func (n *Network) Rejoin(p ids.ProcID, peers []ids.ProcID) {
	for _, q := range peers {
		if q != p {
			n.Heal(p, q)
			n.Heal(q, p)
		}
	}
}
