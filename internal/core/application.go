package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/hpclab/datagrid/internal/replica"
)

// Clock supplies the current virtual time.
type Clock interface {
	Now() time.Duration
}

// FetchResult describes one completed data-access request.
type FetchResult struct {
	// Logical is the requested logical file name.
	Logical string
	// Chosen is the replica the selection server picked. A local hit
	// ranks nothing: Chosen holds the local location only, with a nil
	// Report and a zero Score.
	Chosen Candidate
	// LocalHit reports whether the file was already present at the local
	// site and no transfer happened (Fig. 1's first branch).
	LocalHit bool
	// Started and Finished are virtual timestamps of the request.
	Started, Finished time.Duration
}

// Duration returns the end-to-end request time.
func (r FetchResult) Duration() time.Duration { return r.Finished - r.Started }

// Application models the client side of Fig. 1: a parallel application on
// the local host that checks for a local replica, otherwise consults the
// replica catalog and selection server and fetches the chosen replica via
// GridFTP (abstracted as a replica.Transfer).
type Application struct {
	local     string
	selection *SelectionServer
	transfer  replica.Transfer
	clock     Clock
	catalog   *replica.Catalog
}

// NewApplication wires the client pipeline for an application running on
// host local. Fetched files land in /cache on that host.
func NewApplication(local string, selection *SelectionServer, transfer replica.Transfer, clock Clock) (*Application, error) {
	if local == "" {
		return nil, errors.New("core: application needs a local host")
	}
	if selection == nil {
		return nil, errors.New("core: application needs a selection server")
	}
	if transfer == nil {
		return nil, errors.New("core: application needs a transfer mechanism")
	}
	if clock == nil {
		return nil, errors.New("core: application needs a clock")
	}
	return &Application{
		local:     local,
		selection: selection,
		transfer:  transfer,
		clock:     clock,
		catalog:   selection.catalog,
	}, nil
}

// Fetch runs the full scenario for one logical file. done is invoked
// exactly once with the outcome (immediately for local hits and failures
// that occur before the transfer starts would instead be returned as an
// error from Fetch itself).
func (a *Application) Fetch(logical string, done func(FetchResult, error)) error {
	if done == nil {
		return errors.New("core: Fetch needs a completion callback")
	}
	start := a.clock.Now()
	// Step 1: is the file already at the local site?
	locs, err := a.catalog.Locations(logical)
	if err != nil {
		return err
	}
	for _, l := range locs {
		if l.Host == a.local {
			done(FetchResult{
				Logical:  logical,
				LocalHit: true,
				Chosen:   Candidate{Location: l},
				Started:  start,
				Finished: a.clock.Now(),
			}, nil)
			return nil
		}
	}
	// Steps 2-4: catalog -> selection server -> information server.
	best, err := a.selection.SelectBest(logical, start)
	if err != nil {
		return err
	}
	lf, err := a.catalog.Logical(logical)
	if err != nil {
		return err
	}
	// Step 5: transfer the chosen replica via GridFTP.
	return a.transfer(best.Location.Host, best.Location.Path, a.local, "/cache/"+logical, lf.SizeBytes, func(terr error) {
		res := FetchResult{
			Logical:  logical,
			Chosen:   best,
			Started:  start,
			Finished: a.clock.Now(),
		}
		if terr != nil {
			done(res, fmt.Errorf("core: fetching %q from %s: %w", logical, best.Location.Host, terr))
			return
		}
		done(res, nil)
	})
}
