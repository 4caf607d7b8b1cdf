// Command openapidrift is the CI gate that keeps the served OpenAPI
// document and the route table in lock-step, through the wire. Pointed at a
// running selfheal-server it fetches GET /api/v1/openapi.json and compares
// the path/method inventory against httpapi.MountedRoutes for the families
// named on the command line, in both directions:
//
//   - every versioned route the server mounts must appear in the document;
//   - every operation the document describes must exist in the route table.
//
// The generator derives the document from the same table the mux registers
// from, so this should be impossible to break — which is exactly why it is
// cheap to assert: a drift here means the generation pipeline itself broke.
//
// Usage: openapidrift http://host:port [family...]   (default: v1 metrics)
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"

	"selfheal/internal/httpapi"
)

func main() {
	if len(os.Args) < 2 {
		log.Fatal("usage: openapidrift http://host:port [family...]")
	}
	base := os.Args[1]
	families := os.Args[2:]
	if len(families) == 0 {
		families = []string{httpapi.FamV1, httpapi.FamMetrics}
	}

	resp, err := http.Get(base + "/api/v1/openapi.json")
	if err != nil {
		log.Fatalf("fetch openapi.json: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("fetch openapi.json: HTTP %d", resp.StatusCode)
	}
	var doc struct {
		OpenAPI string                    `json:"openapi"`
		Paths   map[string]map[string]any `json:"paths"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		log.Fatalf("decode openapi.json: %v", err)
	}
	if !strings.HasPrefix(doc.OpenAPI, "3.1") {
		log.Fatalf("document version %q, want 3.1.x", doc.OpenAPI)
	}

	served := map[string]bool{}
	for path, ops := range doc.Paths {
		for method := range ops {
			served[strings.ToUpper(method)+" "+path] = true
		}
	}
	declared := map[string]bool{}
	for _, r := range httpapi.MountedRoutes(families...) {
		if !strings.HasPrefix(r.Pattern, "/api/v1/") && r.Pattern != "/api/v1" {
			continue // unversioned surfaces are outside the OpenAPI contract
		}
		declared[r.Key()] = true
	}

	var drift []string
	for key := range declared {
		if !served[key] {
			drift = append(drift, "missing from document: "+key)
		}
	}
	for key := range served {
		if !declared[key] {
			drift = append(drift, "undeclared in route table: "+key)
		}
	}
	if len(drift) > 0 {
		sort.Strings(drift)
		for _, d := range drift {
			fmt.Fprintln(os.Stderr, "openapidrift: "+d)
		}
		os.Exit(1)
	}
	fmt.Printf("OPENAPI DRIFT OK (%d operations)\n", len(declared))
}
