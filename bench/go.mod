module github.com/mayflower-dfs/mayflower/bench

go 1.22

require github.com/mayflower-dfs/mayflower v0.0.0

replace github.com/mayflower-dfs/mayflower => ../
