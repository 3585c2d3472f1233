// Package enginesharing exercises the enginesharing analyzer with local
// stubs for the simulation engine and network core.
package enginesharing

// Engine stands in for simulation.Engine.
type Engine struct{ now int64 }

// NewEngine builds a private engine.
func NewEngine() *Engine { return &Engine{} }

// Run drives the event loop.
func (e *Engine) Run() {}

// Now reads the virtual clock.
func (e *Engine) Now() int64 { return e.now }

// Network stands in for netsim.Network.
type Network struct{ links int }

// Hosts counts attached hosts.
func (n *Network) Hosts() int { return n.links }

// Env bundles a world the way internal/experiments does.
type Env struct {
	Engine *Engine
	Net    *Network
}

func consume(e *Engine) { e.Run() }

func capturedByClosure() {
	eng := NewEngine()
	go func() {
		eng.Run() // want `\*Engine captured by a go statement`
	}()
}

func capturedThroughStruct(env *Env) {
	go func() {
		_ = env.Engine.Now() // want `\*Engine captured by a go statement`
	}()
	go func() {
		_ = env.Net.Hosts() // want `\*Network captured by a go statement`
	}()
}

func passedAsArgument() {
	eng := NewEngine()
	go consume(eng) // want `\*Engine passed to a goroutine`
}

func goMethodValue() {
	eng := NewEngine()
	go eng.Run() // want `go statement invokes a \*Engine method`
}

func sentOverChannel(ch chan *Engine, nets chan Network) {
	eng := NewEngine()
	ch <- eng         // want `\*Engine sent over a channel`
	nets <- Network{} // want `\*Network sent over a channel`
}

func ownedInsideGoroutineIsFine() {
	go func() {
		eng := NewEngine() // private world: the sanctioned pattern
		eng.Run()
		env := &Env{Engine: eng, Net: &Network{}}
		_ = env.Engine.Now()
		_ = env.Net.Hosts()
	}()
}

func resultsOverChannelAreFine(out chan int64) {
	go func() {
		eng := NewEngine()
		eng.Run()
		out <- eng.Now()
	}()
}

func suppressedHandoff(ch chan *Engine) {
	eng := NewEngine()
	//gridlint:enginesharing-ok single-owner handoff before the goroutine starts
	ch <- eng
}

// Testbed stands in for cluster.Testbed: a world whose engine is
// reachable through an accessor.
type Testbed struct{ eng *Engine }

// Engine returns the testbed's engine.
func (tb *Testbed) Engine() *Engine { return tb.eng }

func engineThroughAccessor() {
	tb := &Testbed{eng: NewEngine()}
	go func() {
		// The engine value is produced by a call, but the call chain
		// bottoms out in the captured testbed — still a capture.
		tb.Engine().Run() // want `\*Engine captured by a go statement`
	}()
}

func accessorOnOwnedTestbedIsFine() {
	go func() {
		tb := &Testbed{eng: NewEngine()} // private world: the sanctioned pattern
		tb.Engine().Run()
	}()
}
