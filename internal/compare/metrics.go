package compare

import "compsynth/internal/obs"

// Identification metrics: one counter bump per public identification call
// (Identify* cover the exact search, the paper's sampling method, the
// don't-care variant and the multi-unit extension), plus a hit counter so
// reports show the comparison-function yield, and the number of exact
// identifications the unateness prefilter settled without any search.
var (
	mIdentifyCalls    = obs.C("compare.identify_calls")
	mIdentifyHits     = obs.C("compare.identify_hits")
	mPrefilterRejects = obs.C("compare.prefilter_rejects")
)

func countIdentify(ok bool) bool {
	mIdentifyCalls.Inc()
	if ok {
		mIdentifyHits.Inc()
	}
	return ok
}
