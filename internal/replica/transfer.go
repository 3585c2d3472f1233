package replica

// Transfer moves bytes from a source host/path to a destination host/path
// and invokes done exactly once with the outcome. Implementations are
// asynchronous: in simulation, done fires later in virtual time; over real
// GridFTP, when the wire transfer completes. Returning an error means the
// transfer could not even start (done will not be called).
type Transfer func(srcHost, srcPath, dstHost, dstPath string, bytes int64, done func(error)) error
