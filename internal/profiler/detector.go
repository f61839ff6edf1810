package profiler

import (
	"fmt"
	"math/bits"

	"cocg/internal/resources"
)

// EventKind classifies what the online detector concluded from one frame.
type EventKind int

// Detector event kinds.
const (
	// EventSame: the game is still in the stage the detector believed.
	EventSame EventKind = iota
	// EventLoadingEntered: the frame classified into the loading cluster
	// while the detector believed an execution stage — a stage boundary
	// (Observation 2), the trigger for next-stage prediction.
	EventLoadingEntered
	// EventStageEntered: the first execution frame after loading; StageID is
	// the detector's best identification of the new stage.
	EventStageEntered
	// EventRefined: an additional cluster appeared that upgrades the current
	// identification to a more specific multi-cluster stage type.
	EventRefined
	// EventMismatch: the frame matches neither the current stage nor
	// loading — either a prediction/identification error or a transient
	// spike; the predictor's rehearsal callback decides which (Section
	// IV-B2).
	EventMismatch
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventSame:
		return "same"
	case EventLoadingEntered:
		return "loading-entered"
	case EventStageEntered:
		return "stage-entered"
	case EventRefined:
		return "refined"
	case EventMismatch:
		return "mismatch"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is the detector's conclusion for one observed frame.
type Event struct {
	Kind    EventKind
	StageID int // current (possibly re-identified) stage after the event
	Cluster int // the frame's cluster
	// Candidate, on a mismatch, is the catalog stage the frame would match
	// (-1 when none does) — the re-match target of the rehearsal callback.
	Candidate int
}

// Detector is the real-time stage-judgment step of the predictor (Fig. 8):
// every 5-second frame it decides whether the game stayed in its stage,
// entered loading, entered a new stage, or diverged from expectation.
type Detector struct {
	p         *Profile
	inLoading bool
	curStage  int
	// curSet is the set of clusters seen in the current stage, one bit per
	// cluster ID (a profile has at most MaxClusters).
	curSet uint64
	// execFrames counts frames since the stage was entered. The first frame
	// after loading straddles the phase boundary (its 5 seconds mix loading
	// and execution), so identification is tentative until the second,
	// pure frame confirms or corrects it.
	execFrames int
	// pendingCluster is a cluster seen once outside the current signature;
	// only a second consecutive occurrence upgrades the stage (a single
	// frame is indistinguishable from a spike).
	pendingCluster int
}

// NewDetector returns a detector that believes the game starts in loading
// (sessions always begin with initialization).
func NewDetector(p *Profile) *Detector {
	return &Detector{p: p, inLoading: true, curStage: LoadingStageID, pendingCluster: -1}
}

// Current returns the detector's believed stage and whether it is loading.
func (d *Detector) Current() (stageID int, loading bool) {
	return d.curStage, d.inLoading
}

// ForceStage overrides the detector's belief — the rehearsal callback uses
// it to jump to the re-matched stage.
func (d *Detector) ForceStage(id int) {
	d.curStage = id
	d.inLoading = id == LoadingStageID
	d.execFrames = 2 // forced identification is authoritative, not tentative
	d.pendingCluster = -1
	d.curSet = 0
	if s, ok := d.p.Stage(id); ok && !s.Loading {
		for _, c := range s.ClusterSet {
			d.curSet |= 1 << uint(c)
		}
	}
}

// Observe processes one telemetry frame and returns the detector's
// conclusion.
func (d *Detector) Observe(frame resources.Vector) Event {
	cl := d.p.ClassifyFrame(frame)
	mask := uint64(1) << uint(cl)
	if cl == d.p.LoadingClusterID {
		if d.inLoading {
			return Event{Kind: EventSame, StageID: LoadingStageID, Cluster: cl, Candidate: -1}
		}
		d.inLoading = true
		d.curStage = LoadingStageID
		d.curSet = 0
		return Event{Kind: EventLoadingEntered, StageID: LoadingStageID, Cluster: cl, Candidate: -1}
	}

	if d.inLoading {
		// First execution frame after loading: identify the entered stage
		// from the clusters it could belong to. The identification stays
		// tentative for one frame because this frame straddles the boundary.
		d.inLoading = false
		d.curSet = mask
		d.curStage = d.p.entry[cl]
		d.execFrames = 1
		return Event{Kind: EventStageEntered, StageID: d.curStage, Cluster: cl, Candidate: -1}
	}

	// Mid-execution frame.
	d.execFrames++
	seen := d.curSet&mask != 0
	if d.execFrames == 2 && !seen {
		// Second frame disagrees with the boundary-polluted first frame:
		// re-identify from this pure frame.
		d.curSet = mask
		d.curStage = d.p.entry[cl]
		d.pendingCluster = -1
		return Event{Kind: EventRefined, StageID: d.curStage, Cluster: cl, Candidate: -1}
	}
	if seen {
		d.pendingCluster = -1
		return Event{Kind: EventSame, StageID: d.curStage, Cluster: cl, Candidate: -1}
	}
	cur, _ := d.p.Stage(d.curStage)
	if inSet(cur.ClusterSet, cl) {
		// A new-but-expected cluster of the current multi-cluster stage.
		d.curSet |= mask
		d.pendingCluster = -1
		return Event{Kind: EventSame, StageID: d.curStage, Cluster: cl, Candidate: -1}
	}
	// The cluster does not belong to the believed stage. A single such frame
	// is indistinguishable from a spike, so hold judgment; two consecutive
	// frames either upgrade to a more specific multi-cluster signature or
	// surface a mismatch for the rehearsal callback.
	if d.pendingCluster != cl {
		d.pendingCluster = cl
		return Event{Kind: EventSame, StageID: d.curStage, Cluster: cl, Candidate: -1}
	}
	d.pendingCluster = -1
	// Walking the bits low to high lists the union in ascending order.
	union := make([]int, 0, bits.OnesCount64(d.curSet)+1)
	for set := d.curSet | mask; set != 0; set &= set - 1 {
		union = append(union, bits.TrailingZeros64(set))
	}
	if id, ok := d.p.StageByClusters(union); ok {
		d.curSet |= mask
		d.curStage = id
		return Event{Kind: EventRefined, StageID: id, Cluster: cl, Candidate: -1}
	}
	// Genuine mismatch: report the best alternative identification.
	candidate := -1
	if ids := d.p.CandidateStages(cl); len(ids) > 0 {
		candidate = ids[0]
	}
	return Event{Kind: EventMismatch, StageID: d.curStage, Cluster: cl, Candidate: candidate}
}

func inSet(set []int, c int) bool {
	for _, x := range set {
		if x == c {
			return true
		}
	}
	return false
}
