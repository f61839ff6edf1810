package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cocg/internal/core"
	"cocg/internal/gamesim"
)

// goldenBundles is the sha256 of every game's persisted bundle (its JSON
// document, uncompressed) trained at a small fixed configuration. The offline
// pass — corpus recording, K-means, stage detection, catalog pruning and the
// three model trainers — must reproduce these bytes exactly: any change to a
// figure the bundle carries is a change to every trained system.
var goldenBundles = map[string]string{
	"CSGO":           "e8bfd1428438b411c4e1422128dc5ebcdb342aea69e1259ecd861e3ddce27404",
	"Contra":         "ac74174d68cb3c80029d91274e046d9dee23011307f81bb13cd4c1d9b9b1ee2e",
	"DOTA2":          "c5d7d6085cdf264188ccdd288db4fe8043a109c0b864908b4d37583f8b7856e8",
	"Devil May Cry":  "3fa8a290c9ef0b620ee9cd224944bf67fc9750368b94fe779b3bb647cc30b6c3",
	"Genshin Impact": "ee31601f6e57aff9d519952f26f1de4784fb7cd4078482b9bb430ac04cf7640f",
}

func TestTrainedBundleGolden(t *testing.T) {
	sys, err := core.Train(gamesim.AllGames(), core.TrainOptions{Players: 6, SessionsPerPlayer: 3, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, game := range sys.Games() {
		b, _ := sys.Bundle(game)
		dto, err := bundleToDTO(b)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(dto)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got := hex.EncodeToString(sum[:])
		if want := goldenBundles[game]; got != want {
			t.Errorf("%s bundle sha256 = %s, want %s", game, got, want)
		}
	}
	if len(sys.Games()) != len(goldenBundles) {
		t.Errorf("trained %d games, golden has %d", len(sys.Games()), len(goldenBundles))
	}
}
