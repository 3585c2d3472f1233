package replica

import "slices"

// HostsWith returns the hosts holding a copy of the logical file, sorted:
// the host-level view the package's tests and oracle compare against.
func (c *Catalog) HostsWith(name string) ([]string, error) {
	locs, err := c.Locations(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(locs))
	for i, l := range locs {
		out[i] = l.Host
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}
