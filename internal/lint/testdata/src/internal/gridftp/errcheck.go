// Package gridftp (testdata) exercises the errcheck analyzer inside one of
// its scoped packages: silently dropped Close/Flush/SetDeadline errors
// are flagged; explicit discards, deferred cleanup, handled errors and
// non-error methods are not.
package gridftp

import "time"

type conn struct{}

func (c *conn) Close() error                     { return nil }
func (c *conn) Flush() error                     { return nil }
func (c *conn) SetDeadline(t time.Time) error    { return nil }
func (c *conn) SetReadDeadline(time.Time) error  { return nil }
func (c *conn) SetWriteDeadline(time.Time) error { return nil }
func (c *conn) Name() string                     { return "" }

type closerNoErr struct{}

func (closerNoErr) Close() {}

func bad(c *conn, t time.Time) {
	c.Close()              // want `error from c\.Close is dropped`
	c.Flush()              // want `error from c\.Flush is dropped`
	c.SetDeadline(t)       // want `error from c\.SetDeadline is dropped`
	c.SetReadDeadline(t)   // want `error from c\.SetReadDeadline is dropped`
	c.SetWriteDeadline(t)  // want `error from c\.SetWriteDeadline is dropped`
}

// transfer ends an upload by closing its data connection: that close is
// the transfer's last chance to report a failure.
func transfer(data *conn, xfer func(*conn) error) error {
	defer data.Close()
	if err := xfer(data); err != nil {
		return err
	}
	data.Close() // want `error from data\.Close is dropped`
	return nil
}

// accept bounds a wait by a deadline; one that failed to arm leaves the
// wait unbounded.
func accept(ln *conn, d time.Duration) {
	ln.SetDeadline(time.Now().Add(d)) // want `error from ln\.SetDeadline is dropped`
}

func good(c *conn) error {
	_ = c.Close()    // explicit discard is a decision, not an accident
	defer c.Close()  // deferred cleanup is exempt by design
	c.Name()         // not an error-returning target method
	if err := c.Flush(); err != nil {
		return err
	}
	return c.Close()
}

func noError(c closerNoErr) {
	c.Close() // returns nothing: not a dropped error
}

func suppressed(c *conn) {
	c.Close() //gridlint:errcheck-ok probing liveness; error is the signal we want to ignore
}
