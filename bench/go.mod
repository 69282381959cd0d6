module github.com/rockhopper-db/rockhopper/bench

go 1.22

require github.com/rockhopper-db/rockhopper v0.0.0

replace github.com/rockhopper-db/rockhopper => ../
