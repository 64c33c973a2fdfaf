package barrier

import "time"

// WaitDeadline methods: every barrier bounds its waits through the
// shared runDeadline machinery in deadline.go. Optimized and New return
// *FWay, so they inherit its method.

// WaitDeadline implements DeadlineWaiter.
func (b *Central) WaitDeadline(id int, timeout time.Duration) error {
	return b.runDeadline(b, id, timeout)
}

// WaitDeadline implements DeadlineWaiter.
func (b *Dissemination) WaitDeadline(id int, timeout time.Duration) error {
	return b.runDeadline(b, id, timeout)
}

// WaitDeadline implements DeadlineWaiter.
func (b *Combining) WaitDeadline(id int, timeout time.Duration) error {
	return b.runDeadline(b, id, timeout)
}

// WaitDeadline implements DeadlineWaiter.
func (b *MCS) WaitDeadline(id int, timeout time.Duration) error {
	return b.runDeadline(b, id, timeout)
}

// WaitDeadline implements DeadlineWaiter.
func (b *Tournament) WaitDeadline(id int, timeout time.Duration) error {
	return b.runDeadline(b, id, timeout)
}

// WaitDeadline implements DeadlineWaiter.
func (b *FWay) WaitDeadline(id int, timeout time.Duration) error {
	return b.runDeadline(b, id, timeout)
}

// WaitDeadline implements DeadlineWaiter.
func (b *Hyper) WaitDeadline(id int, timeout time.Duration) error {
	return b.runDeadline(b, id, timeout)
}

// WaitDeadline implements DeadlineWaiter.
func (b *Hierarchical) WaitDeadline(id int, timeout time.Duration) error {
	return b.runDeadline(b, id, timeout)
}

var (
	_ DeadlineWaiter = (*Central)(nil)
	_ DeadlineWaiter = (*Dissemination)(nil)
	_ DeadlineWaiter = (*Combining)(nil)
	_ DeadlineWaiter = (*MCS)(nil)
	_ DeadlineWaiter = (*Tournament)(nil)
	_ DeadlineWaiter = (*FWay)(nil)
	_ DeadlineWaiter = (*Hyper)(nil)
	_ DeadlineWaiter = (*Hierarchical)(nil)
)
