// Package lockedcb exercises the lockedcallback analyzer against a stub
// Engine with the simulation package's method shapes: scheduling or
// firing callbacks between Lock and Unlock (or under a deferred Unlock)
// is flagged; the release-then-call pattern is not.
package lockedcb

import (
	"sync"
	"time"
)

type Event struct{}

type Handler interface {
	Fire(now time.Duration)
}

type Engine struct{}

func (e *Engine) Schedule(at time.Duration, fn func(now time.Duration)) (*Event, error) {
	return nil, nil
}
func (e *Engine) ScheduleHandler(at time.Duration, h Handler) (*Event, error) {
	return nil, nil
}
func (e *Engine) After(d time.Duration, fn func(now time.Duration)) (*Event, error) {
	return nil, nil
}
func (e *Engine) AfterHandler(d time.Duration, h Handler) (*Event, error) {
	return nil, nil
}
func (e *Engine) Step() bool { return false }

// record is a concrete event receiver.
type record struct{ fired int }

func (r *record) Fire(time.Duration) { r.fired++ }

type monitor struct {
	mu     sync.Mutex
	state  sync.RWMutex
	engine *Engine
	cb     func(now time.Duration)
	h      Handler
	rec    *record
	value  int
}

func (m *monitor) badSchedule() {
	m.mu.Lock()
	m.engine.Schedule(time.Second, func(now time.Duration) {}) // want `calling Engine\.Schedule while holding a mutex`
	m.mu.Unlock()
}

func (m *monitor) badDeferredUnlock() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.engine.After(time.Second, func(now time.Duration) {}) // want `calling Engine\.After while holding a mutex`
	return err
}

func (m *monitor) badRLock() {
	m.state.RLock()
	m.engine.Step() // want `calling Engine\.Step while holding a mutex`
	m.state.RUnlock()
}

func (m *monitor) badCallback(now time.Duration) {
	m.mu.Lock()
	m.cb(now) // want `invoking an event callback while holding a mutex`
	m.mu.Unlock()
}

func (m *monitor) badScheduleHandler() {
	m.mu.Lock()
	m.engine.ScheduleHandler(time.Second, m.h) // want `calling Engine\.ScheduleHandler while holding a mutex`
	m.mu.Unlock()
}

func (m *monitor) badAfterHandler() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.engine.AfterHandler(time.Second, m.rec) // want `calling Engine\.AfterHandler while holding a mutex`
	return err
}

func (m *monitor) badHandlerFire(now time.Duration) {
	m.state.RLock()
	m.h.Fire(now) // want `invoking an event callback while holding a mutex`
	m.state.RUnlock()
}

func (m *monitor) goodHandlerReleaseFirst(now time.Duration) {
	m.mu.Lock()
	h := m.h
	m.mu.Unlock()
	h.Fire(now)
}

// A concrete record's own Fire is a declared method, like any other call.
func (m *monitor) goodConcreteFire(now time.Duration) {
	m.mu.Lock()
	m.rec.Fire(now)
	m.mu.Unlock()
}

func (m *monitor) goodReleaseFirst(now time.Duration) {
	m.mu.Lock()
	cb := m.cb
	m.value++
	m.mu.Unlock()
	cb(now)
	m.engine.Step()
}

func (m *monitor) goodSeparateGoroutine() {
	m.mu.Lock()
	defer m.mu.Unlock()
	go func() {
		// A fresh goroutine does not inherit the caller's locks.
		m.engine.Step()
	}()
}

func (m *monitor) suppressed() {
	m.mu.Lock()
	//gridlint:lockedcallback-ok fixture proves the engine cannot re-enter here
	m.engine.Step()
	m.mu.Unlock()
}
