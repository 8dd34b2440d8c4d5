// Command mayflower is the Mayflower filesystem CLI client.
//
// Usage:
//
//	mayflower -ns <addr> [-fs <addr>] [-host <name>] <command> [args]
//
// Commands:
//
//	put <name> <local-file>     create a file and upload contents
//	get <name> [local-file]     read a file (stdout if no destination)
//	append <name> <local-file>  append a local file's bytes
//	ls [prefix]                 list files
//	stat <name>                 show metadata
//	rm <name>                   delete a file
//	scrub                       verify chunk checksums on every dataserver
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/client"
	"github.com/mayflower-dfs/mayflower/internal/dataserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mayflower:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mayflower", flag.ContinueOnError)
	var (
		nsAddr  = fs.String("ns", "127.0.0.1:7000", "nameserver RPC address")
		fsAddr  = fs.String("fs", "", "flowserver address: the first shard's, which serves the shard directory (optional; needs -host)")
		host    = fs.String("host", "", "topology host name of this client")
		chunk   = fs.Int64("chunk", 0, "chunk size for new files (bytes, 0 = default)")
		repl    = fs.Int("replication", 0, "replication factor for new files (0 = default)")
		strong  = fs.Bool("strong", false, "use strong read consistency")
		timeout = fs.Duration("timeout", 5*time.Minute, "operation timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command (put, get, append, ls, stat, rm)")
	}

	mode := client.Sequential
	if *strong {
		mode = client.Strong
	}
	c, err := client.New(client.Options{
		NameserverAddr: *nsAddr,
		FlowserverAddr: *fsAddr,
		Host:           *host,
		Consistency:    mode,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch cmd, args := rest[0], rest[1:]; cmd {
	case "put":
		if len(args) != 2 {
			return fmt.Errorf("usage: put <name> <local-file>")
		}
		data, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		if _, err := c.Create(ctx, args[0], nameserver.CreateOptions{
			ChunkSize: *chunk, Replication: *repl,
		}); err != nil {
			return err
		}
		size, err := c.Append(ctx, args[0], data)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "put %s (%d bytes)\n", args[0], size)
		return nil

	case "get":
		if len(args) < 1 || len(args) > 2 {
			return fmt.Errorf("usage: get <name> [local-file]")
		}
		data, err := c.ReadAll(ctx, args[0])
		if err != nil {
			return err
		}
		if len(args) == 2 {
			return os.WriteFile(args[1], data, 0o644)
		}
		_, err = out.Write(data)
		return err

	case "append":
		if len(args) != 2 {
			return fmt.Errorf("usage: append <name> <local-file>")
		}
		data, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		size, err := c.Append(ctx, args[0], data)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "appended %d bytes to %s (now %d bytes)\n", len(data), args[0], size)
		return nil

	case "ls":
		prefix := ""
		if len(args) == 1 {
			prefix = args[0]
		}
		files, err := c.List(ctx, prefix)
		if err != nil {
			return err
		}
		for _, fi := range files {
			fmt.Fprintf(out, "%12d  %-36s  %s\n", fi.SizeBytes, fi.ID, fi.Name)
		}
		return nil

	case "stat":
		if len(args) != 1 {
			return fmt.Errorf("usage: stat <name>")
		}
		fi, err := c.Stat(ctx, args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "name:       %s\nid:         %s\nsize:       %d bytes\nchunk size: %d bytes\nchunks:     %d\n",
			fi.Name, fi.ID, fi.SizeBytes, fi.ChunkSize, fi.NumChunks())
		for i, r := range fi.Replicas {
			role := "replica"
			if i == 0 {
				role = "primary"
			}
			fmt.Fprintf(out, "%s:    %s on %s (%s)\n", role, r.ServerID, r.Host, r.DataAddr)
		}
		return nil

	case "rm":
		if len(args) != 1 {
			return fmt.Errorf("usage: rm <name>")
		}
		if err := c.Delete(ctx, args[0]); err != nil {
			return err
		}
		fmt.Fprintf(out, "deleted %s\n", args[0])
		return nil

	case "scrub":
		return scrub(ctx, *nsAddr, out)

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// scrub asks every registered dataserver to verify its chunk checksums
// and prints any faults.
func scrub(ctx context.Context, nsAddr string, out io.Writer) error {
	pool := rpc.NewPool(rpc.Options{})
	defer pool.Close()
	ns := nameserver.NewClient(pool.Peer(nsAddr))
	servers, err := ns.Servers(ctx)
	if err != nil {
		return err
	}
	total := 0
	for _, si := range servers {
		faults, err := dataserver.NewClient(pool.Peer(si.ControlAddr)).Scrub(ctx)
		if err != nil {
			fmt.Fprintf(out, "%-8s scrub failed: %v\n", si.ID, err)
			total++
			continue
		}
		for _, f := range faults {
			fmt.Fprintf(out, "%-8s file %s chunk %d: %s\n", si.ID, f.FileID, f.Chunk, f.Reason)
		}
		total += len(faults)
	}
	if total == 0 {
		fmt.Fprintf(out, "scrub clean: %d dataservers, no faults\n", len(servers))
		return nil
	}
	return fmt.Errorf("scrub found %d fault(s)", total)
}
