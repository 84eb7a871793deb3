package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/server"
)

// serve hosts server.NewWithConfig over an engine with an explicit decode
// cache budget, which 3dpro-server has no flag for.
func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7333", "listen address")
	cacheBytes := fs.Int64("cache-bytes", 0, "decode cache budget")
	var ds datasetList
	fs.Var(&ds, "dataset", "name=dir (repeatable)")
	fs.Parse(args)
	srv, eng, err := newInProcessServer(*cacheBytes, ds)
	if err != nil {
		return err
	}
	defer eng.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return srv.Run(ctx, *addr)
}

// datasetList collects repeated -dataset name=dir flags.
type datasetList []string

func (d *datasetList) String() string     { return fmt.Sprint(*d) }
func (d *datasetList) Set(v string) error { *d = append(*d, v); return nil }

// newInProcessServer loads the persisted datasets into an engine with the
// given decode-cache budget (0 = the engine default) and serves them with
// the default server configuration.
func newInProcessServer(cacheBytes int64, specs []string) (*server.Server, *core.Engine, error) {
	eng := core.NewEngine(core.EngineOptions{CacheBytes: cacheBytes})
	srv := server.NewWithConfig(eng, server.Config{})
	for _, spec := range specs {
		name, dir, ok := strings.Cut(spec, "=")
		if !ok {
			eng.Close()
			return nil, nil, fmt.Errorf("bad -dataset %q, want name=dir", spec)
		}
		d, err := eng.LoadDataset(dir)
		if err != nil {
			eng.Close()
			return nil, nil, err
		}
		d.Name = name
		if err := srv.AddDataset(d); err != nil {
			eng.Close()
			return nil, nil, err
		}
	}
	return srv, eng, nil
}
