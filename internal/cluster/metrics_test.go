package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestScrapesAreWellFormed drives one collect, one job and one small sweep
// through a fleet over two job-tier backends, then checks that the fleet's
// and a backend's /metrics are valid text exposition: every family's HELP
// and TYPE lines appear once, together, and all of its samples follow them
// in one contiguous block.
func TestScrapesAreWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test boots real simulators")
	}
	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := startJobsBackend(t)
		urls = append(urls, ts.URL)
	}
	f, err := New(Options{Backends: urls, HealthInterval: -1, SweepPoll: 10 * time.Millisecond, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet := httptest.NewServer(f.Handler())
	defer fleet.Close()
	client := &http.Client{Timeout: time.Minute}

	if rec := fleetPost(t, f.Handler(), "/v1/collect", collectBody(1)); rec.Code != http.StatusOK {
		t.Fatalf("collect: %d: %s", rec.Code, rec.Body.String())
	}
	job := `{"Collect":` + string(collectBody(2)) + `}`
	rec := fleetPost(t, f.Handler(), "/v1/jobs", []byte(job))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("job: %d: %s", rec.Code, rec.Body.String())
	}
	res, info := postSweepFleet(t, client, fleet.URL, `{"Space":{"Benches":["jlisp"],"Seeds":[3],"Base":{},"Axes":[{"Field":"Cores","Values":[1,2]}]}}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d", res.StatusCode)
	}
	awaitSweepInfo(t, client, fleet.URL, info.ID, 60*time.Second, nil)

	for name, url := range map[string]string{"gcfleet": fleet.URL, "gcserved": urls[0]} {
		res, err := client.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkExposition(t, name, string(body))
	}
}

// checkExposition reports every line of text that breaks the one-block-
// per-family rule of the Prometheus text format.
func checkExposition(t *testing.T, scrape, text string) {
	t.Helper()
	seen := map[string]bool{}
	var fam, typ string
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			fam, _, _ = strings.Cut(rest, " ")
			if seen[fam] {
				t.Errorf("%s: %s has a second HELP line", scrape, fam)
			}
			seen[fam] = true
			if i+1 == len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+fam+" ") {
				t.Errorf("%s: HELP of %s is not followed by its TYPE", scrape, fam)
				continue
			}
			i++
			typ = strings.TrimPrefix(lines[i], "# TYPE "+fam+" ")
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("%s: line %q is not inside a HELP/TYPE pair", scrape, line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if name != fam && !(typ == "summary" && (name == fam+"_sum" || name == fam+"_count")) {
			t.Errorf("%s: sample %q is outside its family's block (inside %s)", scrape, line, fam)
		}
	}
	if len(seen) == 0 {
		t.Errorf("%s: scrape has no families", scrape)
	}
}
