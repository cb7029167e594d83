package scenario

import "repro/internal/timeline"

// DefaultScriptBase is the scenario family a script runs over when it
// does not name one.
const DefaultScriptBase = "scaled:europe"

// BuildScript materializes a timeline script: the base instance is
// built from the script's base family spec (DefaultScriptBase when the
// script names none) with the given seed, and the script is compiled
// against the instance's busy evaluation window — so the timeline's
// interval 0 replays the same busy period every batch evaluation
// scores, before the script starts bending it.
func BuildScript(s *timeline.Script, seed int64) (*timeline.Timeline, *Instance, error) {
	spec := s.Base
	if spec == "" {
		spec = DefaultScriptBase
	}
	in, err := Build(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	tl, err := timeline.Compile(in.Sc, in.Start, s)
	if err != nil {
		return nil, nil, err
	}
	return tl, in, nil
}
