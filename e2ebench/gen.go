package main

import (
	"fmt"
	"math/rand"

	"repro/internal/clients"
)

// Everything the system under test receives is generated here from the
// workload seed: the fleet's clients, the HTTP request streams and the
// window-manager churn script. The same seed gives the same inputs.

// Query targets, in the order the generators index them.
var targets = [...]string{"stats", "trace", "clients", "desktop"}

const execTarget = len(targets) // target index used for exec requests

// httpWorkload sizes one HTTP workload's fleet and request mix.
type httpWorkload struct {
	sessions   int  // fleet size
	perSession int  // clients launched in each session
	writes     bool // alternate exec and query on each connection
}

var httpWorkloads = map[string]httpWorkload{
	"http-read":  {sessions: 64, perSession: 2},
	"http-write": {sessions: 16, perSession: 16, writes: true},
}

// seedFor derives an independent stream seed for one consumer of a
// workload seed (a connection, the fleet set-up, the churn script).
func seedFor(seed int64, stream int64) int64 {
	return seed*1_000_003 + stream*7_919 + 17
}

// client generates one client window's configuration.
func client(instance string, rng *rand.Rand) clients.Config {
	return clients.Config{Instance: instance, Class: "XTerm",
		Width: 80 + rng.Intn(320), Height: 60 + rng.Intn(240), X: rng.Intn(700), Y: rng.Intn(500)}
}

// fleetClients generates the clients each session of w launches.
func fleetClients(w httpWorkload, seed int64) [][]clients.Config {
	rng := rand.New(rand.NewSource(seedFor(seed, -1)))
	out := make([][]clients.Config, w.sessions)
	for s := range out {
		for c := 0; c < w.perSession; c++ {
			out[s] = append(out[s], client(fmt.Sprintf("s%dc%d", s, c), rng))
		}
	}
	return out
}

// httpOp is one request a loader connection sends.
type httpOp struct {
	session int
	target  int // index into targets, or execTarget
}

// httpStream is one connection's request sequence.
type httpStream struct {
	w    httpWorkload
	rng  *rand.Rand
	step int
}

func newHTTPStream(w httpWorkload, seed int64, conn int) *httpStream {
	return &httpStream{w: w, rng: rand.New(rand.NewSource(seedFor(seed, int64(conn))))}
}

func (s *httpStream) next() httpOp {
	s.step++
	op := httpOp{session: s.rng.Intn(s.w.sessions)}
	if s.w.writes && s.step%2 == 1 {
		op.target = execTarget
	} else {
		op.target = s.rng.Intn(len(targets))
	}
	return op
}

// churnKind is one step of the window-manager churn script.
type churnKind uint8

const (
	opLaunch churnKind = iota // a new client maps and is managed
	opMove                    // a resident client asks to move
	opResize                  // a resident client asks to resize
	opRename                  // a resident client changes WM_NAME
	opPan                     // the user pans the Virtual Desktop
	opClose                   // the oldest client exits and is unmanaged
	numChurnKinds
)

var churnNames = [numChurnKinds]string{"launch", "move", "resize", "rename", "pan", "close"}

// churnResident is the number of clients kept alive during wm-churn.
const churnResident = 64

// churnMiddle is the number of random steps between a cycle's launch
// and its close.
const churnMiddle = 4

// churnSetup generates the clients wm-churn starts with, named c0 up.
func churnSetup(seed int64) []clients.Config {
	rng := rand.New(rand.NewSource(seedFor(seed, -3)))
	out := make([]clients.Config, churnResident)
	for i := range out {
		out[i] = client(fmt.Sprintf("c%d", i), rng)
	}
	return out
}

// churnOp is one churn step. slot picks a resident client by age
// (0 = oldest); x, y, w, h are the requested geometry or pan offset, and
// a launch carries the new client's configuration.
type churnOp struct {
	kind       churnKind
	slot       int
	x, y, w, h int
	launch     clients.Config
}

// churnStream is the churn script: every cycle launches one client,
// runs churnMiddle random steps on residents, and closes the oldest, so
// the population stays at churnResident.
type churnStream struct {
	rng      *rand.Rand
	step     int
	launched int // clients launched so far, set-up included, naming the next
}

func newChurnStream(seed int64) *churnStream {
	return &churnStream{rng: rand.New(rand.NewSource(seedFor(seed, -2))), launched: churnResident}
}

func (s *churnStream) next() churnOp {
	pos := s.step % (churnMiddle + 2)
	s.step++
	switch pos {
	case 0:
		s.launched++
		return churnOp{kind: opLaunch, launch: client(fmt.Sprintf("c%d", s.launched-1), s.rng)}
	case churnMiddle + 1:
		return churnOp{kind: opClose}
	}
	op := churnOp{kind: opMove + churnKind(s.rng.Intn(int(opPan-opMove+1))), slot: s.rng.Intn(churnResident)}
	switch op.kind {
	case opMove:
		op.x, op.y = s.rng.Intn(700), s.rng.Intn(500)
	case opResize:
		op.w, op.h = 80+s.rng.Intn(320), 60+s.rng.Intn(240)
	case opPan:
		op.x, op.y = s.rng.Intn(3000), s.rng.Intn(2400)
	}
	return op
}
