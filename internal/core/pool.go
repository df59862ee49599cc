package core

import (
	"context"
	"sync/atomic"
)

// RunGroups is one worker's loop over fork groups (Groups): it takes the
// next group from next until the groups run out or ctx is done, lowers
// each member i with cfg, and runs the group with RunGroup. Member i's
// results go into into(i), and each, when non-nil, is called with its
// lowered configuration and results. It returns the index and error of
// the first point that fails, having taken no group after that point's;
// calling it again carries on with the next group. A done ctx stops it
// without a failure.
//
// Workers share groups and next, each calling RunGroups on its own Runner,
// so cfg, into and each must be safe for that. Once the Runner's scratch
// has grown to the largest group, a group allocates nothing here.
func (r *Runner) RunGroups(ctx context.Context, groups [][]int, next *atomic.Int64,
	cfg func(i int) (ExperimentConfig, error), into func(i int) *Results,
	each func(i int, cfg *ExperimentConfig, res *Results) error) (int, error) {
	for ctx.Err() == nil {
		g := int(next.Add(1)) - 1
		if g >= len(groups) {
			return 0, nil
		}
		members := groups[g]
		r.cfgs = r.cfgs[:0]
		for _, i := range members {
			c, err := cfg(i)
			if err != nil {
				return i, err
			}
			r.cfgs = append(r.cfgs, c)
		}
		cur := 0 // the member RunGroup is running
		err := r.RunGroup(r.cfgs, func(k int) *Results {
			cur = k
			return into(members[k])
		}, func(k int, res *Results) error {
			if each == nil {
				return nil
			}
			return each(members[k], &r.cfgs[k], res)
		})
		if err != nil {
			if ctx.Err() != nil {
				return 0, nil
			}
			return members[cur], err
		}
	}
	return 0, nil
}
