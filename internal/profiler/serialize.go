package profiler

import (
	"encoding/json"
	"fmt"

	"cocg/internal/cluster"
	"cocg/internal/resources"
)

// profileDTO is the persistent form of a Profile. Frame assignments are not
// kept: after the offline pass only the centroids and the catalog matter.
type profileDTO struct {
	Game             string             `json:"game"`
	Centroids        []resources.Vector `json:"centroids"`
	LoadingClusterID int                `json:"loading_cluster"`
	Catalog          []StageSig         `json:"catalog"`
	SigIndex         map[string]int     `json:"sig_index"`
	MinShare         float64            `json:"min_share"`
}

// MarshalJSON implements json.Marshaler.
func (p *Profile) MarshalJSON() ([]byte, error) {
	return json.Marshal(profileDTO{
		Game:             p.Game,
		Centroids:        p.Clusters.Centroids,
		LoadingClusterID: p.LoadingClusterID,
		Catalog:          p.Catalog,
		SigIndex:         p.sigIndex,
		MinShare:         p.minShare,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Profile) UnmarshalJSON(b []byte) error {
	var d profileDTO
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	if len(d.Centroids) == 0 {
		return fmt.Errorf("profiler: profile without centroids")
	}
	if len(d.Centroids) > MaxClusters {
		return fmt.Errorf("profiler: profile has %d frame clusters, at most %d are supported", len(d.Centroids), MaxClusters)
	}
	if len(d.Catalog) == 0 || !d.Catalog[LoadingStageID].Loading {
		return fmt.Errorf("profiler: profile catalog missing its loading stage")
	}
	if d.LoadingClusterID < 0 || d.LoadingClusterID >= len(d.Centroids) {
		return fmt.Errorf("profiler: loading cluster %d out of range", d.LoadingClusterID)
	}
	for _, s := range d.Catalog {
		for _, c := range s.ClusterSet {
			if c < 0 || c >= len(d.Centroids) {
				return fmt.Errorf("profiler: stage %d references cluster %d", s.ID, c)
			}
		}
	}
	p.Game = d.Game
	p.Clusters = &cluster.Result{Centroids: d.Centroids}
	p.LoadingClusterID = d.LoadingClusterID
	p.Catalog = d.Catalog
	p.sigIndex = d.SigIndex
	if p.sigIndex == nil {
		p.sigIndex = map[string]int{}
	}
	p.minShare = d.MinShare
	if p.minShare <= 0 {
		p.minShare = minClusterShare
	}
	p.finish()
	return nil
}
